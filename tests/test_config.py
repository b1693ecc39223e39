import pytest

from tmeseg.config import RunConfig


@pytest.mark.parametrize("key", ["blur_sigma", "margin_um", "mpp"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_floats_rejected(key, value):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        RunConfig(**{key: value})


@pytest.mark.parametrize(
    "key",
    [
        "mitosis_roi_radius_px",
        "carbon_rgb_sum_max",
        "mitosis_min_area_px",
        "crop_px",
        "stride_px",
        "background_threshold",
    ],
)
@pytest.mark.parametrize("value", [8.0, 30.5, True])
def test_integer_fields_reject_floats_and_bools(key, value):
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        RunConfig(**{key: value})


def test_background_threshold_may_be_none():
    assert RunConfig(background_threshold=None).background_threshold is None
