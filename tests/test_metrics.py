import math

import numpy as np
import pytest

import tmeseg.metrics
from oracles import hand_dice, hand_mcc
from tmeseg.metrics import (
    ConfusionCounts,
    EvalUnit,
    dice,
    evaluate_instances,
    evaluate_semantic,
    format_table,
    instance_eval_units,
    iou,
    mcc,
    mcc_table,
)
from tmeseg.raster import InstanceMap
from tmeseg.taxonomy import class_map_from_json, default_taxonomy

TAX = default_taxonomy()


def _masks(nx, ny, overlap, size=400):
    x = np.zeros(size, dtype=bool)
    y = np.zeros(size, dtype=bool)
    x[:nx] = True
    y[nx - overlap : nx - overlap + ny] = True
    return x, y


# ---------------------------------------------------------------------------
# Dice / IoU
# ---------------------------------------------------------------------------


def test_dice_frozen_example():
    x, y = _masks(100, 100, 50)
    assert dice(x, y) == 0.5
    assert iou(x, y) == pytest.approx(1 / 3, abs=1e-15)


def test_dice_iou_edge_cases():
    empty = np.zeros(10, dtype=bool)
    full = np.ones(10, dtype=bool)
    assert dice(empty, empty) == 1.0
    assert iou(empty, empty) == 1.0
    assert dice(empty, full) == 0.0
    assert iou(empty, full) == 0.0
    assert dice(full, full) == 1.0


def test_dice_is_symmetric_and_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.random(64) < 0.4
        y = rng.random(64) < 0.4
        assert dice(x, y) == dice(y, x)
        assert dice(x, y) == pytest.approx(hand_dice(x, y), abs=1e-15)


def test_dice_iou_identity():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        x = rng.random(32) < 0.5
        y = rng.random(32) < 0.5
        d, j = dice(x, y), iou(x, y)
        assert d == pytest.approx(2 * j / (1 + j), abs=1e-12)


def test_mask_validation():
    with pytest.raises(ValueError, match="dimensions"):
        dice(np.zeros(3, bool), np.zeros(4, bool))
    with pytest.raises(ValueError, match="boolean"):
        dice(np.zeros(3, int), np.zeros(3, int))


# ---------------------------------------------------------------------------
# MCC
# ---------------------------------------------------------------------------


def test_mcc_frozen_example():
    got = mcc(ConfusionCounts(tp=4, tn=5, fp=1, fn=2))
    assert got == pytest.approx(18 / math.sqrt(1260), abs=1e-12)
    assert got == pytest.approx(hand_mcc(4, 5, 1, 2), abs=1e-15)


def test_mcc_perfect_and_inverted():
    assert mcc(ConfusionCounts(5, 5, 0, 0)) == 1.0
    assert mcc(ConfusionCounts(0, 0, 5, 5)) == -1.0


def test_mcc_degenerate_denominator_is_zero():
    assert mcc(ConfusionCounts(0, 10, 0, 0)) == 0.0
    assert mcc(ConfusionCounts(10, 0, 0, 0)) == 0.0


def test_mcc_class_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(200):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, size=4))
        a = mcc(ConfusionCounts(tp, tn, fp, fn))
        b = mcc(ConfusionCounts(tn, tp, fn, fp))  # swap the positive class
        assert a == pytest.approx(b, abs=1e-12)


def test_confusion_counts_add_and_validate():
    for negative in range(4):
        counts = [0, 0, 0, 0]
        counts[negative] = -1
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionCounts(*counts)


# ---------------------------------------------------------------------------
# Per-nucleus protocol
# ---------------------------------------------------------------------------


def _eval_map(names=("lymphocyte", "plasma_cell", "epithelial_cell_nucleus")):
    return class_map_from_json(
        {"eval_classes": list(names), "map": {n: n for n in names}}
    )


def test_units_use_largest_coverage():
    cmap = _eval_map()
    ids = np.zeros((2, 5), np.int32)
    ids[0] = 1
    pred = np.zeros((2, 5), np.uint8)
    pred[0, :3] = TAX.resolve("lymphocyte")  # 60%
    pred[0, 3:] = TAX.resolve("plasma_cell")  # 40%
    units = instance_eval_units(
        InstanceMap.from_ids(ids), {1: TAX.resolve("lymphocyte")}, pred, cmap
    )
    assert units == [EvalUnit(1, 0, 0)]


def test_units_coverage_tie_takes_lower_eval_index():
    cmap = _eval_map()
    ids = np.zeros((1, 4), np.int32)
    ids[0] = 1
    pred = np.zeros((1, 4), np.uint8)
    pred[0, :2] = TAX.resolve("plasma_cell")
    pred[0, 2:] = TAX.resolve("lymphocyte")
    units = instance_eval_units(
        InstanceMap.from_ids(ids), {1: TAX.resolve("plasma_cell")}, pred, cmap
    )
    assert units[0].pred_class == 0  # lymphocyte: eval index 0 < 1


def test_units_unmapped_pixels_lose_ties():
    cmap = _eval_map()
    ids = np.zeros((1, 4), np.int32)
    ids[0] = 1
    pred = np.zeros((1, 4), np.uint8)  # background: unmapped
    pred[0, :2] = TAX.resolve("lymphocyte")  # 50/50 against unmapped
    units = instance_eval_units(
        InstanceMap.from_ids(ids), {1: TAX.resolve("lymphocyte")}, pred, cmap
    )
    assert units[0].pred_class == 0
    pred[:] = 0  # fully unmapped -> miss
    units = instance_eval_units(
        InstanceMap.from_ids(ids), {1: TAX.resolve("lymphocyte")}, pred, cmap
    )
    assert units[0].pred_class is None


def test_units_reject_unmapped_ground_truth():
    cmap = _eval_map()
    ids = np.zeros((1, 2), np.int32)
    ids[0] = 1
    pred = np.zeros((1, 2), np.uint8)
    with pytest.raises(ValueError, match="neutrophil"):
        instance_eval_units(
            InstanceMap.from_ids(ids), {1: TAX.resolve("neutrophil")}, pred, cmap
        )


def test_units_reject_missing_class_and_shape():
    cmap = _eval_map()
    ids = np.zeros((1, 2), np.int32)
    ids[0] = 1
    with pytest.raises(ValueError, match="dimensions"):
        instance_eval_units(InstanceMap.from_ids(ids), {}, np.zeros((2, 2)), cmap)
    with pytest.raises(ValueError, match="no ground-truth class"):
        instance_eval_units(InstanceMap.from_ids(ids), {}, np.zeros((1, 2)), cmap)


def test_units_invariant_to_instance_relabeling():
    cmap = _eval_map()
    rng = np.random.default_rng(3)
    ids = np.zeros((8, 8), np.int32)
    ids[1:3, 1:3] = 1
    ids[5:7, 5:7] = 2
    pred = rng.choice(
        [0, TAX.resolve("lymphocyte"), TAX.resolve("plasma_cell")], size=(8, 8)
    ).astype(np.uint8)
    gt = {1: TAX.resolve("lymphocyte"), 2: TAX.resolve("plasma_cell")}
    base = instance_eval_units(InstanceMap.from_ids(ids), gt, pred, cmap)
    relabeled = np.where(ids == 1, 7, np.where(ids == 2, 4, 0)).astype(np.int32)
    gt2 = {7: gt[1], 4: gt[2]}
    other = instance_eval_units(InstanceMap.from_ids(relabeled), gt2, pred, cmap)
    assert sorted((u.gt_class, u.pred_class) for u in base) == sorted(
        (u.gt_class, u.pred_class) for u in other
    )


def test_mcc_table_counts_and_empty_classes():
    cmap = _eval_map()
    units = [
        EvalUnit(1, 0, 0),  # lymphocyte hit
        EvalUnit(2, 0, 1),  # lymphocyte missed as plasma
        EvalUnit(3, 1, 1),  # plasma hit
        EvalUnit(4, 1, None),  # plasma missed entirely
    ]
    table = mcc_table(units, cmap)
    lym = table["lymphocyte"]
    assert (lym["tp"], lym["fn"], lym["fp"], lym["tn"]) == (1, 1, 0, 2)
    assert lym["mcc"] == pytest.approx(hand_mcc(1, 2, 0, 1), abs=1e-12)
    assert table["epithelial_cell_nucleus"]["n_gt"] == 0
    assert table["epithelial_cell_nucleus"]["mcc"] is None


def test_evaluate_instances_end_to_end():
    cmap = _eval_map(("lymphocyte", "plasma_cell"))
    ids = np.zeros((4, 8), np.int32)
    ids[0:2, 0:3] = 1
    ids[2:4, 4:8] = 2
    pred = np.zeros((4, 8), np.uint8)
    pred[0:2, 0:3] = TAX.resolve("lymphocyte")
    pred[2:4, 4:8] = TAX.resolve("lymphocyte")  # nucleus 2 misclassified
    gt = {1: TAX.resolve("lymphocyte"), 2: TAX.resolve("plasma_cell")}
    table = evaluate_instances(InstanceMap.from_ids(ids), gt, pred, cmap)
    assert table["lymphocyte"]["tp"] == 1 and table["lymphocyte"]["fp"] == 1
    assert table["plasma_cell"]["fn"] == 1
    assert table["lymphocyte"]["mcc"] == pytest.approx(hand_mcc(1, 0, 1, 0), abs=1e-12)


def test_mcc_table_monte_carlo_agrees_with_pooled_counts():
    cmap = _eval_map()
    rng = np.random.default_rng(17)
    units = [
        EvalUnit(i, int(rng.integers(0, 3)), None if rng.random() < 0.1 else int(rng.integers(0, 3)))
        for i in range(500)
    ]
    table = mcc_table(units, cmap)
    for idx, name in enumerate(cmap.eval_classes):
        tp = sum(1 for u in units if u.gt_class == idx and u.pred_class == idx)
        fn = sum(1 for u in units if u.gt_class == idx and u.pred_class != idx)
        fp = sum(1 for u in units if u.gt_class != idx and u.pred_class == idx)
        tn = len(units) - tp - fn - fp
        assert table[name]["mcc"] == pytest.approx(hand_mcc(tp, tn, fp, fn), abs=1e-12)


# ---------------------------------------------------------------------------
# Semantic evaluation and report formatting
# ---------------------------------------------------------------------------


def test_semantic_table_values():
    gt = np.zeros((4, 4), np.uint8)
    gt[:2] = 3
    pred = np.zeros((4, 4), np.uint8)
    pred[:, :2] = 3
    table = evaluate_semantic(gt, pred, [0, 3])
    assert table["epithelial_tissue"]["iou"] == pytest.approx(4 / 12, abs=1e-15)
    assert table["epithelial_tissue"]["dice"] == pytest.approx(0.5, abs=1e-15)
    assert table["background"]["dice"] == pytest.approx(0.5, abs=1e-15)


def test_semantic_checkerboard():
    yy, xx = np.mgrid[0:6, 0:6]
    gt = ((yy + xx) % 2).astype(np.uint8)
    pred = 1 - gt
    table = evaluate_semantic(gt, pred, [0, 1])
    assert table["background"]["dice"] == 0.0
    assert table["stroma"]["iou"] == 0.0


def test_semantic_shape_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        evaluate_semantic(np.zeros((2, 2)), np.zeros((3, 3)), [0])


@pytest.mark.parametrize("seed", range(6))
def test_semantic_histogram_equals_per_class_masks(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 60, size=2))
    # few values, so most of the 15 classes are absent from one side or both
    gt = rng.choice([0, 1, 3, 7], size=shape).astype(np.uint8)
    pred = np.where(rng.random(shape) < 0.3, rng.integers(0, 10, size=shape), gt).astype(np.uint8)
    monkeypatch.setattr(tmeseg.metrics, "_BLOCK", 97)  # many blocks, the last one short
    table = evaluate_semantic(gt, pred, TAX.ids)
    for cid in TAX.ids:
        want = {"dice": dice(gt == cid, pred == cid), "iou": iou(gt == cid, pred == cid)}
        assert table[TAX.name_of(cid)] == want  # the same floats, not approximately


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.bool_, np.float64])
def test_semantic_takes_uint8_label_rasters(dtype):
    labels = np.zeros((3, 3), np.uint8)
    with pytest.raises(ValueError, match="uint8"):
        evaluate_semantic(labels.astype(dtype), labels, [0])
    with pytest.raises(ValueError, match="uint8"):
        evaluate_semantic(labels, labels.astype(dtype), [0])


def test_format_table_alignment_and_none():
    text = format_table(
        ["class", "mcc"], [["lymphocyte", 0.57735], ["plasma_cell", None]]
    )
    lines = text.splitlines()
    assert lines[0].startswith("class")
    assert set(lines[1]) <= {"-", " "}
    assert "0.5774" in lines[2]
    assert lines[3].rstrip() == "plasma_cell"
