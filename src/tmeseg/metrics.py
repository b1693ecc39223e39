"""Evaluation metrics: Dice, IoU, MCC, and the per-nucleus protocol.

Per-nucleus evaluation assigns each ground-truth nucleus the predicted
class with the largest pixel coverage inside it (after mapping both sides
through a ClassMap) and scores each evaluation class one-vs-rest with the
Matthews correlation coefficient. Units from many tiles can be pooled
before computing the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .raster import _BLOCK, InstanceMap
from .taxonomy import VOCABULARY, ClassMap


# ---------------------------------------------------------------------------
# Mask metrics
# ---------------------------------------------------------------------------


def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"mask dimensions differ: {x.shape} vs {y.shape}")
    if x.dtype != np.bool_ or y.dtype != np.bool_:
        raise ValueError("masks must be boolean")
    return x, y


def dice(x: np.ndarray, y: np.ndarray) -> float:
    """2|X∩Y| / (|X|+|Y|); 1.0 when both masks are empty."""
    x, y = _check_pair(x, y)
    nx = int(x.sum())
    ny = int(y.sum())
    if nx + ny == 0:
        return 1.0
    return 2 * int((x & y).sum()) / (nx + ny)


def iou(x: np.ndarray, y: np.ndarray) -> float:
    """|X∩Y| / |X∪Y|; 1.0 when both masks are empty."""
    x, y = _check_pair(x, y)
    union = int((x | y).sum())
    if union == 0:
        return 1.0
    return int((x & y).sum()) / union


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


def mcc(c: ConfusionCounts) -> float:
    """(TP·TN − FP·FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN)).

    Returns 0.0 when any denominator factor vanishes.
    """
    den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if den == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(den)


# ---------------------------------------------------------------------------
# Per-nucleus protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalUnit:
    """One ground-truth nucleus scored against the prediction.

    Classes are evaluation-vocabulary indices; pred None means every
    predicted pixel inside the nucleus was unmapped (a miss).
    """

    instance_id: int
    gt_class: int
    pred_class: Optional[int]


def instance_eval_units(
    gt_instances: InstanceMap,
    gt_classes: dict[int, int],
    pred: np.ndarray,
    cmap: ClassMap,
) -> list[EvalUnit]:
    """Largest-pixel-coverage assignment of predicted classes to GT nuclei.

    One unit per nucleus in the raster, in id order. Ties go to the lower
    evaluation index; unmapped pixels lose every tie and win only when they
    cover the whole instance.
    """
    pred = np.asarray(pred)
    if pred.shape != gt_instances.shape:
        raise ValueError("prediction and instance raster dimensions differ")
    k = len(cmap.eval_classes)
    lut = np.zeros(VOCABULARY.n_classes, dtype=np.int64)
    for cid in VOCABULARY.ids:
        idx = cmap.map_id(cid)
        lut[cid] = 0 if idx is None else idx + 1  # slot 0 = unmapped

    slot, gids = gt_instances.slot, gt_instances.gids
    mapped = lut[np.take(pred, gt_instances.index).astype(np.int64)]
    counts = np.bincount(
        slot.astype(np.int64) * (k + 1) + mapped, minlength=gids.size * (k + 1)
    ).reshape(gids.size, k + 1)
    units: list[EvalUnit] = []
    for gid, row in zip(gids.tolist(), counts[:, 1:]):
        if gid not in gt_classes:
            raise ValueError(f"no ground-truth class for nucleus {gid}")
        gt_eval = cmap.map_id(gt_classes[gid])
        if gt_eval is None:
            name = VOCABULARY.name_of(gt_classes[gid])
            raise ValueError(f"nucleus {gid}: ground-truth class {name!r} is unmapped")
        pred_eval = int(np.argmax(row)) if row.any() else None
        units.append(EvalUnit(gid, gt_eval, pred_eval))
    return units


def mcc_table(units: Iterable[EvalUnit], cmap: ClassMap) -> dict[str, dict]:
    """One-vs-rest MCC per evaluation class over pooled units.

    Classes with no ground-truth units are reported with mcc None.
    """
    units = list(units)
    table: dict[str, dict] = {}
    for idx, name in enumerate(cmap.eval_classes):
        tp = sum(1 for u in units if u.gt_class == idx and u.pred_class == idx)
        fn = sum(1 for u in units if u.gt_class == idx and u.pred_class != idx)
        fp = sum(1 for u in units if u.gt_class != idx and u.pred_class == idx)
        tn = len(units) - tp - fn - fp
        counts = ConfusionCounts(tp, tn, fp, fn)
        n_gt = tp + fn
        table[name] = {
            "n_gt": n_gt,
            "tp": tp,
            "tn": tn,
            "fp": fp,
            "fn": fn,
            "mcc": mcc(counts) if n_gt else None,
        }
    return table


def evaluate_instances(
    gt_instances: InstanceMap,
    gt_classes: dict[int, int],
    pred: np.ndarray,
    cmap: ClassMap,
) -> dict[str, dict]:
    """Per-class MCC table for one tile (units built and pooled here)."""
    return mcc_table(instance_eval_units(gt_instances, gt_classes, pred, cmap), cmap)


# ---------------------------------------------------------------------------
# Semantic evaluation
# ---------------------------------------------------------------------------


def evaluate_semantic(
    gt: np.ndarray, pred: np.ndarray, classes: Sequence[int]
) -> dict[str, dict]:
    """Per-class Dice and IoU of two uint8 label rasters, one-vs-rest.

    One joint histogram of ``(gt, pred)`` pairs, counted ``_BLOCK`` pixels
    at a time, gives every class's |G|, |P| and |G∩P|: the integers
    ``dice`` and ``iou`` count on the class's two masks, so the same floats.
    """
    gt = np.asarray(gt)
    pred = np.asarray(pred)
    if gt.shape != pred.shape:
        raise ValueError("ground truth and prediction dimensions differ")
    if gt.dtype != np.uint8 or pred.dtype != np.uint8:
        raise ValueError("evaluate_semantic expects uint8 label rasters")
    g, p = gt.ravel(), pred.ravel()
    joint = np.zeros(1 << 16, dtype=np.int64)
    for i in range(0, g.size, _BLOCK):
        pair = g[i : i + _BLOCK].astype(np.intp) << 8 | p[i : i + _BLOCK]
        joint += np.bincount(pair, minlength=1 << 16)
    joint = joint.reshape(256, 256)  # [gt class, pred class]
    n_gt, n_pred = joint.sum(axis=1).tolist(), joint.sum(axis=0).tolist()
    both = joint.diagonal().tolist()
    out: dict[str, dict] = {}
    for cid in classes:
        total, inter = n_gt[cid] + n_pred[cid], both[cid]
        out[VOCABULARY.name_of(cid)] = {
            "dice": 2 * inter / total if total else 1.0,
            "iou": inter / (total - inter) if total else 1.0,
        }
    return out


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Aligned-column text table for report output."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(
            ["" if v is None else (f"{v:.4f}" if isinstance(v, float) else str(v)) for v in row]
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
