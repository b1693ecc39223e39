"""Inference-time postprocessing of full-vocabulary student logits.

Two modes:

* ``force_mode``: per-pixel argmax, with generic leukocyte winners
  reassigned to their best specific white-blood-cell subtype.
* ``panoptic_assign``: per-nucleus class from the largest logit sum over
  the nucleus-bearing classes, plus per-pixel argmax over region classes
  everywhere else.

Ties always resolve to the lowest class id. The generic leukocyte class
never appears in either output.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .raster import InstanceMap, LogitStack
from .taxonomy import Taxonomy, default_taxonomy

LEUKOCYTE_SUBTYPES = (
    "lymphocyte",
    "plasma_cell",
    "myeloid_cell",
    "eosinophil",
    "neutrophil",
)

# Classes a nucleus may take vs the region classes for non-nucleus pixels.
NUCLEUS_CLASSES = (
    "endothelial_cell",
    "lymphocyte",
    "plasma_cell",
    "myeloid_cell",
    "eosinophil",
    "neutrophil",
    "epithelial_cell_nucleus",
    "fibroblast",
    "mitotic_cell",
)
NON_NUCLEUS_CLASSES = (
    "background",
    "stroma",
    "smooth_muscle",
    "epithelial_tissue",
    "red_blood_cell",
)


def as_student_logits(
    stack: LogitStack, taxonomy: Optional[Taxonomy] = None
) -> LogitStack:
    """Validate a full-vocabulary stack and order channels by class id."""
    tax = taxonomy or default_taxonomy()
    want = set(tax.ids)
    have = set(stack.class_ids)
    if have != want:
        missing = sorted(tax.name_of(c) for c in want - have)
        extra = sorted(str(c) for c in have - want)
        raise ValueError(
            f"student logits must cover the full vocabulary; "
            f"missing {missing}, unexpected {extra}"
        )
    order = np.argsort(np.asarray(stack.class_ids))
    if (order == np.arange(order.size)).all():
        return stack
    return LogitStack(
        tuple(stack.class_ids[i] for i in order), stack.planes[order]
    )


def _rows_for(stack: LogitStack, names, tax: Taxonomy) -> tuple[np.ndarray, np.ndarray]:
    """Plane indices and class ids for the named channels, ascending by id."""
    ids = sorted(tax.resolve(n) for n in names)
    index = {c: i for i, c in enumerate(stack.class_ids)}
    return np.asarray([index[c] for c in ids]), np.asarray(ids, dtype=np.uint8)


def force_mode(
    stack: LogitStack, taxonomy: Optional[Taxonomy] = None
) -> np.ndarray:
    """Per-pixel argmax with leukocyte winners pushed down to subtypes.

    Where the global winner is the generic leukocyte class, the pixel is
    reassigned to the highest-valued subtype channel regardless of sign.
    """
    tax = taxonomy or default_taxonomy()
    stack = as_student_logits(stack, tax)
    leu = tax.resolve("leukocyte")
    win = np.argmax(stack.planes, axis=0)  # channels are id-ordered
    labels = np.asarray(stack.class_ids, dtype=np.uint8)[win]
    at = labels == leu
    if at.any():
        rows, ids = _rows_for(stack, LEUKOCYTE_SUBTYPES, tax)
        sub = stack.planes[rows][:, at]
        labels[at] = ids[np.argmax(sub, axis=0)]
    return labels


def panoptic_assign(
    stack: LogitStack,
    nuclei: InstanceMap,
    taxonomy: Optional[Taxonomy] = None,
) -> tuple[np.ndarray, dict[int, int]]:
    """Nucleus-coherent assignment.

    Each nucleus takes the class whose logits sum highest over its pixels,
    restricted to nucleus-bearing classes; every non-nucleus pixel takes
    the argmax over region classes. Returns the label raster and the
    per-nucleus classes.
    """
    tax = taxonomy or default_taxonomy()
    stack = as_student_logits(stack, tax)
    if nuclei.ids.shape != (stack.height, stack.width):
        raise ValueError("nuclei and logits dimensions differ")

    reg_rows, reg_ids = _rows_for(stack, NON_NUCLEUS_CLASSES, tax)
    labels = reg_ids[np.argmax(stack.planes[reg_rows], axis=0)]

    rows, cols, slot, gids = nuclei.pixel_groups()
    nuc_rows, nuc_ids = _rows_for(stack, NUCLEUS_CLASSES, tax)
    sums = np.stack(
        [
            np.bincount(slot, weights=stack.planes[r][rows, cols], minlength=gids.size)
            for r in nuc_rows
        ]
    )
    best = nuc_ids[np.argmax(sums, axis=0)]  # ties -> lowest id
    labels[rows, cols] = best[slot]
    return labels, dict(zip(gids.tolist(), best.tolist()))
