import numpy as np
import pytest

from oracles import closed_form_calibrate
from tmeseg.counting import CountRecord, calibrate, count_record


def _disc_mask(centers, r=2.5, size=64, class_id=7):
    mask = np.zeros((size, size), np.uint8)
    yy, xx = np.mgrid[0:size, 0:size]
    for cy, cx in centers:
        mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = class_id
    return mask


def test_component_count_empty_and_separated():
    assert count_record(np.zeros((8, 8), np.uint8), 7).component_count == 0
    mask = _disc_mask([(10, 10), (10, 40), (40, 20)])
    assert count_record(mask, 7).component_count == 3
    assert count_record(mask, 3).component_count == 0


def test_touching_cells_merge_into_one_component():
    mask = _disc_mask([(20, 20), (20, 24)])  # overlapping discs
    assert count_record(mask, 7).component_count == 1


def test_area_estimate_is_exact_for_uniform_cells():
    mask = np.zeros((50, 50), np.uint8)
    mask[:10, :50] = 7  # 500 pixels
    assert count_record(mask, 7).pixel_area == 500
    assert count_record(mask, 7, 25.0).area_estimate == 20.0


def test_area_estimate_linearity():
    base = np.zeros((40, 40), np.uint8)
    base[:5, :20] = 7
    double = np.concatenate([base, base], axis=1)
    one = count_record(base, 7, 12.5).area_estimate
    two = count_record(double, 7, 12.5).area_estimate
    assert two == 2 * one


def test_count_record_fields_and_validation():
    mask = _disc_mask([(10, 10), (40, 40)])
    rec = count_record(mask, 7, mean_area=21.0)
    assert rec.component_count == 2
    assert rec.pixel_area == int((mask == 7).sum())
    assert rec.area_estimate == pytest.approx(rec.pixel_area / 21.0)
    assert count_record(mask, 7).area_estimate is None
    with pytest.raises(ValueError):
        CountRecord(class_id=7, pixel_area=1, component_count=2)


@pytest.mark.parametrize("mean_area", [0.0, -4.0, float("nan"), float("inf")])
def test_count_record_rejects_bad_mean_area(mean_area):
    with pytest.raises(ValueError, match="mean_area_per_cell"):
        count_record(_disc_mask([(10, 10)]), 7, mean_area=mean_area)


def test_calibrate_proportional_data_is_exact():
    pairs = [(25.0 * k, float(k)) for k in range(1, 11)]
    fit = calibrate(pairs)
    assert fit["slope"] == pytest.approx(25.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-9)


def test_calibrate_two_points():
    fit = calibrate([(10.0, 1.0), (30.0, 3.0)])
    assert fit["slope"] == pytest.approx(10.0, abs=1e-12)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_calibrate_outlier_lowers_r_squared():
    pairs = [(25.0 * k, float(k)) for k in range(1, 9)] + [(600.0, 2.0)]
    fit = calibrate(pairs)
    assert fit["r_squared"] < 0.99


def test_calibrate_matches_closed_form_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        areas = rng.uniform(5, 500, size=n)
        counts = areas / rng.uniform(10, 40) + rng.uniform(0, 0.5, size=n)
        pairs = list(zip(areas.tolist(), counts.tolist()))
        fit = calibrate(pairs)
        slope, r2 = closed_form_calibrate(pairs)
        assert fit["slope"] == pytest.approx(slope, rel=1e-12)
        assert fit["r_squared"] == pytest.approx(r2, rel=1e-12)


def test_calibrate_degenerate_inputs():
    with pytest.raises(ValueError, match="two"):
        calibrate([(10.0, 1.0)])
    with pytest.raises(ValueError, match="areas are zero"):
        calibrate([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(ValueError, match="counts"):
        calibrate([(10.0, 0.0), (20.0, 0.0)])
    with pytest.raises(ValueError, match="non-negative"):
        calibrate([(10.0, 1.0), (-3.0, 2.0)])


@pytest.mark.parametrize(
    "pairs",
    [
        [(10.0, 1.0), (float("nan"), 2.0)],
        [(10.0, 1.0), (20.0, float("nan"))],
        [(10.0, 1.0), (float("inf"), 2.0)],
        [(10.0, float("inf")), (20.0, 2.0)],
    ],
    ids=["nan-area", "nan-count", "inf-area", "inf-count"],
)
def test_calibrate_rejects_non_finite_pairs(pairs):
    with pytest.raises(ValueError, match="finite"):
        calibrate(pairs)
