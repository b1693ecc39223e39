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

import numpy as np

from .raster import InstanceMap, LogitStack
from .taxonomy import LEUKOCYTE, VOCABULARY, ids_of

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
# The rosters' class ids, ascending; they index the planes of a stack that
# went through as_student_logits, whose plane c holds class c.
SUBTYPE_IDS, NUCLEUS_IDS, NON_NUCLEUS_IDS = (
    np.asarray(sorted(ids_of(names)), dtype=np.uint8)
    for names in (LEUKOCYTE_SUBTYPES, NUCLEUS_CLASSES, NON_NUCLEUS_CLASSES)
)


def as_student_logits(stack: LogitStack) -> LogitStack:
    """Validate a full-vocabulary stack and order channels by class id."""
    want = set(VOCABULARY.ids)
    have = set(stack.class_ids)
    if have != want:
        missing = sorted(VOCABULARY.name_of(c) for c in want - have)
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


def force_mode(stack: LogitStack) -> np.ndarray:
    """Per-pixel argmax with leukocyte winners pushed down to subtypes.

    Where the global winner is the generic leukocyte class, the pixel is
    reassigned to the highest-valued subtype channel regardless of sign.
    """
    stack = as_student_logits(stack)
    labels = np.argmax(stack.planes, axis=0).astype(np.uint8)
    at = labels == LEUKOCYTE
    if at.any():
        sub = stack.planes[SUBTYPE_IDS][:, at]
        labels[at] = SUBTYPE_IDS[np.argmax(sub, axis=0)]
    return labels


def panoptic_assign(
    stack: LogitStack, nuclei: InstanceMap
) -> tuple[np.ndarray, dict[int, int]]:
    """Nucleus-coherent assignment.

    Each nucleus takes the class whose logits sum highest over its pixels,
    restricted to nucleus-bearing classes; every non-nucleus pixel takes
    the argmax over region classes. Returns the label raster and the
    per-nucleus classes.
    """
    stack = as_student_logits(stack)
    if nuclei.ids.shape != (stack.height, stack.width):
        raise ValueError("nuclei and logits dimensions differ")

    labels = NON_NUCLEUS_IDS[np.argmax(stack.planes[NON_NUCLEUS_IDS], axis=0)]

    rows, cols, slot, gids = nuclei.pixel_groups()
    sums = np.stack(
        [
            np.bincount(slot, weights=stack.planes[c][rows, cols], minlength=gids.size)
            for c in NUCLEUS_IDS
        ]
    )
    best = NUCLEUS_IDS[np.argmax(sums, axis=0)]  # ties -> lowest id
    labels[rows, cols] = best[slot]
    return labels, dict(zip(gids.tolist(), best.tolist()))
