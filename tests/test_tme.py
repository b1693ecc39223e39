import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmeseg
from oracles import enumerate_mwu
from test_stream import _LAUNCHER
from tmeseg.container import container_from_labels, save_stack
from tmeseg import tme
from tmeseg.raster import connected_components
from tmeseg.tme import (
    ALL_LEUKOCYTES,
    CaseRecord,
    association_csv,
    association_table,
    mann_whitney_u,
    slide_metrics,
)
from tmeseg.taxonomy import default_taxonomy

TAX = default_taxonomy()
EPI = TAX.resolve("epithelial_tissue")
EPI_N = TAX.resolve("epithelial_cell_nucleus")
LYM = TAX.resolve("lymphocyte")
STR = TAX.resolve("stroma")


def tumor_slide(size=220, nuclei=10, lym_positions=()):
    """Epithelial disc (r=40) with single-pixel nuclei and lymphocytes."""
    mask = np.full((size, size), STR, dtype=np.uint8)
    yy, xx = np.mgrid[0:size, 0:size]
    c = size // 2
    mask[(yy - c) ** 2 + (xx - c) ** 2 <= 40 * 40] = EPI
    for i in range(nuclei):
        mask[c - 20 + 4 * i, c] = EPI_N
    for r, col in lym_positions:
        mask[r, col] = LYM
    return mask


# ---------------------------------------------------------------------------
# Slide metrics
# ---------------------------------------------------------------------------


def test_in_tumor_ratio_frozen_example():
    # 10 tumor nuclei, 5 lymphocytes anywhere on the slide -> ratio 0.5
    mask = tumor_slide(lym_positions=[(5, 5 + 10 * i) for i in range(5)])
    sm = slide_metrics(mask, mpp=1.0)
    assert sm.tumor_cell_count == 10
    assert sm.counts["lymphocyte"] == 5
    assert sm.in_tumor_ratio["lymphocyte"] == 0.5
    assert sm.in_tumor_ratio["fibroblast"] == 0.0


def test_no_tumor_means_undefined_ratios():
    mask = np.full((64, 64), STR, dtype=np.uint8)
    mask[10, 10] = LYM
    sm = slide_metrics(mask, mpp=0.25)
    assert sm.tumor_cell_count == 0
    assert sm.band_area_px == 0
    assert sm.in_tumor_ratio["lymphocyte"] is None
    assert sm.peripheral_ratio["lymphocyte"] is None
    assert sm.counts["lymphocyte"] == 1


def test_band_membership_by_centroid():
    c = 110
    # at mpp=1 the band is the annulus 40 < d <= 90 around the disc centre
    inside = (c, c + 70)
    outside = (2, 2)  # ~113 px from the disc edge
    mask = tumor_slide(lym_positions=[inside, outside])
    sm = slide_metrics(mask, mpp=1.0)
    assert sm.counts["lymphocyte"] == 2
    assert sm.band_counts["lymphocyte"] == 1
    density = 1 / sm.band_area_mm2
    assert sm.peripheral_ratio["lymphocyte"] == pytest.approx(density / 10)


def test_band_includes_interior_holes():
    # a lymphocyte pixel inside the disc is not epithelial, so it is a
    # (tiny) hole in the tumor region; the band lies strictly outside the
    # region and therefore covers the hole
    c = 110
    mask = tumor_slide(lym_positions=[(c, c + 10)])
    sm = slide_metrics(mask, mpp=1.0)
    assert sm.band_counts["lymphocyte"] == 1


def test_band_area_grows_with_margin():
    mask = tumor_slide()
    areas = [
        slide_metrics(mask, mpp=1.0, margin_um=m).band_area_px for m in (10, 30, 60)
    ]
    assert areas[0] < areas[1] < areas[2]


def test_band_scales_with_resolution():
    # 50 um at mpp=1 reaches 50 px; at mpp=0.5 it reaches 100 px
    mask = tumor_slide()
    px_coarse = slide_metrics(mask, mpp=1.0).band_area_px
    px_fine = slide_metrics(mask, mpp=0.5).band_area_px
    assert px_fine > px_coarse


def test_metrics_translation_invariant():
    lym = [(160, 160), (30, 40)]
    base = tumor_slide(size=260, lym_positions=lym)
    rolled = np.roll(np.roll(base, 9, axis=0), 14, axis=1)
    a = slide_metrics(base, mpp=1.0)
    b = slide_metrics(rolled, mpp=1.0)
    assert a.tumor_cell_count == b.tumor_cell_count
    assert a.band_area_px == b.band_area_px
    assert a.in_tumor_ratio == b.in_tumor_ratio
    assert a.peripheral_ratio == b.peripheral_ratio


def test_leukocyte_pool_sums_subtypes():
    mask = tumor_slide(lym_positions=[(5, 5), (5, 25)])
    mask[5, 45] = TAX.resolve("neutrophil")
    mask[5, 65] = TAX.resolve("leukocyte")
    sm = slide_metrics(mask, mpp=1.0)
    assert sm.counts[ALL_LEUKOCYTES] == 4


def test_slide_metrics_rejects_bad_mpp():
    with pytest.raises(ValueError):
        slide_metrics(np.zeros((4, 4), np.uint8), mpp=0.0)


@pytest.mark.parametrize("mpp", [float("nan"), float("inf")])
def test_slide_metrics_rejects_non_finite_mpp(mpp):
    with pytest.raises(ValueError, match="finite"):
        slide_metrics(tumor_slide(), mpp=mpp)


def test_slide_metrics_labels_each_class_once(monkeypatch):
    calls = []

    def counting(binary):
        calls.append(binary)
        return connected_components(binary)

    monkeypatch.setattr(tme, "connected_components", counting)
    mask = tumor_slide(lym_positions=[(5, 5), (5, 25)])
    mask[5, 45] = TAX.resolve("leukocyte")
    sm = slide_metrics(mask, mpp=1.0)
    # one call per distinct class: the tumor nuclei, the seven metric classes
    # and the generic leukocyte; the pool's subtypes are not labelled again
    assert len(calls) == 9
    assert sm.counts["lymphocyte"] == 2 and sm.counts[ALL_LEUKOCYTES] == 3


def test_slide_metrics_json_round_trip_keys():
    sm = slide_metrics(tumor_slide(), mpp=1.0)
    blob = sm.to_json()
    assert blob["tumor_cell_count"] == 10
    assert set(blob) >= {"in_tumor_ratio", "peripheral_ratio", "band_area_mm2"}


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def test_mwu_frozen_example():
    res = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert res["U"] == 0.0
    assert res["p_value"] == pytest.approx(0.1, abs=1e-12)


def test_mwu_identical_samples():
    res = mann_whitney_u([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
    assert res["U"] == 4.5  # n1*n2/2 with full ties
    assert res["p_value"] == 1.0


def test_mwu_u_antisymmetry_with_ties():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.integers(0, 4, size=int(rng.integers(2, 7))).tolist()
        b = rng.integers(0, 4, size=int(rng.integers(2, 7))).tolist()
        u_ab = mann_whitney_u(a, b)["U"]
        u_ba = mann_whitney_u(b, a)["U"]
        assert u_ab + u_ba == len(a) * len(b)


def test_mwu_exact_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.integers(0, 5, size=int(rng.integers(2, 7))).tolist()
        b = rng.integers(0, 5, size=int(rng.integers(2, 7))).tolist()
        got = mann_whitney_u(a, b)
        want_u, want_p = enumerate_mwu(a, b)
        assert got["U"] == pytest.approx(want_u, abs=1e-12)
        assert got["p_value"] == pytest.approx(want_p, abs=1e-12)


def test_mwu_normal_branch_tracks_exact():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.normal(0.0, 1.0, size=9).tolist()
        b = rng.normal(0.4, 1.0, size=9).tolist()
        exact = mann_whitney_u(a, b, exact_max_n=9)["p_value"]
        approx = mann_whitney_u(a, b, exact_max_n=0)["p_value"]
        assert approx == pytest.approx(exact, abs=0.05)


def test_mwu_constant_pool_large_n():
    res = mann_whitney_u([5.0] * 10, [5.0] * 12)
    assert res["p_value"] == 1.0


def test_mwu_empty_sample_rejected():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])


# ---------------------------------------------------------------------------
# Case records and association tables
# ---------------------------------------------------------------------------


def _case(case_id, value, mutated, gene="TP53"):
    return CaseRecord(
        case_id=case_id,
        metrics={"in_tumor/lymphocyte": value},
        mutations={gene: mutated},
    )


def test_case_record_from_slides_means_and_skips_none():
    tumor = slide_metrics(tumor_slide(lym_positions=[(5, 5)]), mpp=1.0)
    empty = slide_metrics(np.full((64, 64), STR, np.uint8), mpp=1.0)
    rec = CaseRecord.from_slides("case-1", [tumor, empty, tumor], {"TP53": True})
    # the tumor-free slide contributes nothing to the mean
    assert rec.metrics["in_tumor/lymphocyte"] == pytest.approx(
        tumor.in_tumor_ratio["lymphocyte"]
    )
    assert rec.mutations == {"TP53": True}


def test_association_detects_planted_signal():
    cases = [_case(f"m{i}", 10.0 + i, True) for i in range(6)] + [
        _case(f"w{i}", 1.0 + i * 0.1, False) for i in range(6)
    ]
    table = association_table(cases, ["TP53"])
    cell = table["in_tumor/lymphocyte"]["TP53"]
    assert cell["direction"] == "enriched"
    assert cell["p_value"] < 0.01
    assert (cell["n_mut"], cell["n_wt"]) == (6, 6)


def test_association_depleted_direction():
    cases = [_case(f"m{i}", 1.0 + i * 0.1, True) for i in range(5)] + [
        _case(f"w{i}", 10.0 + i, False) for i in range(5)
    ]
    cell = association_table(cases, ["TP53"])["in_tumor/lymphocyte"]["TP53"]
    assert cell["direction"] == "depleted"


def test_association_balanced_direction():
    # mutated [1, 2] against wild-type [1, 2]: U = 2.0 = n_mut * n_wt / 2
    cases = [_case(f"m{i}", v, True) for i, v in enumerate((1.0, 2.0))] + [
        _case(f"w{i}", v, False) for i, v in enumerate((1.0, 2.0))
    ]
    cell = association_table(cases, ["TP53"])["in_tumor/lymphocyte"]["TP53"]
    assert cell["U"] == 2.0
    assert cell["direction"] == "balanced"


def test_association_insufficient_n():
    cases = [_case("m0", 5.0, True)] + [_case(f"w{i}", 1.0, False) for i in range(4)]
    cell = association_table(cases, ["TP53"])["in_tumor/lymphocyte"]["TP53"]
    assert cell["marker"] == "insufficient n"
    assert "p_value" not in cell


def test_association_null_calibration():
    # random labels: the nominal test should reject near its level
    rng = np.random.default_rng(123)
    hits = 0
    runs = 200
    for _ in range(runs):
        values = rng.normal(size=14).tolist()
        flags = [True] * 7 + [False] * 7
        rng.shuffle(flags)
        cases = [
            _case(f"c{i}", values[i], flags[i]) for i in range(14)
        ]
        cell = association_table(cases, ["TP53"])["in_tumor/lymphocyte"]["TP53"]
        if cell["p_value"] < 0.05:
            hits += 1
    assert hits / runs < 0.10  # exact test at the 5% level, discrete slack


def test_association_csv_format():
    for gene in ("TP53", "TP53,KRAS"):  # a comma in a name is quoted
        cases = [_case(f"m{i}", 10.0 + i, True, gene) for i in range(3)] + [
            _case(f"w{i}", 1.0, False, gene) for i in range(3)
        ]
        table = association_table(cases, [gene, "KRAS"])
        text = association_csv(table)
        lines = text.strip().splitlines()
        assert lines[0] == "metric,gene,p_value,direction,n_mut,n_wt,marker"
        assert len(lines) == 3  # header + 2 genes x 1 metric
        assert any(gene in line and "enriched" in line for line in lines[1:])
        rows = list(csv.reader(io.StringIO(text)))
        assert all(len(row) == 7 for row in rows)
        assert [row[1] for row in rows[1:]] == [gene, "KRAS"]


# ---------------------------------------------------------------------------
# Memory of the CLI
# ---------------------------------------------------------------------------


def test_cli_tme_peak_rss_on_a_2048_slide(tmp_path):
    """The margin band is built in row strips, not as whole-frame distance maps."""
    size = 2048
    rng = np.random.default_rng(5)
    mask = np.full((size, size), STR, dtype=np.uint8)
    yy, xx = np.ogrid[:size, :size]
    mask[(yy - size // 2) ** 2 + (xx - size // 3) ** 2 < 500**2] = EPI
    mask[(rng.random((size, size)) < 0.002) & (mask == EPI)] = EPI_N
    mask[(rng.random((size, size)) < 0.002) & (mask == STR)] = LYM
    path = tmp_path / "mask.tmef"
    save_stack(container_from_labels(mask, 0.25), path)  # margin 50 um: r = 200 px
    out = tmp_path / "tme.json"
    src = str(Path(tmeseg.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "tmeseg", "tme",
         "--mask", str(path), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["tme"]["band_area_px"] > 0
    # measured 105 MB; whole-frame distance maps peaked at 211 MB
    assert int(proc.stdout) * 1024 < 150e6  # ru_maxrss is in KiB on Linux
