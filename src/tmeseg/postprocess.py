"""Inference-time postprocessing of full-vocabulary student logits.

Two modes:

* ``force_mode``: per-pixel argmax, with generic leukocyte winners
  reassigned to their best specific white-blood-cell subtype.
* ``panoptic_assign``: per-nucleus class from the largest logit sum over
  the nucleus-bearing classes, plus per-pixel argmax over region classes
  everywhere else.

Ties always resolve to the lowest class id. The generic leukocyte class
never appears in either output.

Both modes are reductions over a stream of logit blocks, ``(class id, flat
start, block)`` in any channel order (``aggregate.Blocks``):
``reduce_force`` and ``reduce_panoptic``. The in-memory calls feed them
whole planes; ``tmeseg postprocess`` feeds them the chunks of a
``container.StudentReader``, so the student stack never sits in memory.
"""

from __future__ import annotations

import numpy as np

from .aggregate import Blocks, _reduce_cells, _whole_planes, check_roster
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
# The rosters' class ids, ascending.
SUBTYPE_IDS, NUCLEUS_IDS, NON_NUCLEUS_IDS = (
    np.asarray(sorted(ids_of(names)), dtype=np.uint8)
    for names in (LEUKOCYTE_SUBTYPES, NUCLEUS_CLASSES, NON_NUCLEUS_CLASSES)
)
_SUBTYPE_SET, _NON_NUCLEUS_SET = set(SUBTYPE_IDS.tolist()), set(NON_NUCLEUS_IDS.tolist())
# Row of each nucleus class in the gathered values, ascending by id.
_NUCLEUS_ROW = {c: i for i, c in enumerate(NUCLEUS_IDS.tolist())}


def _student_planes(stack: LogitStack) -> Blocks:
    """A checked in-memory student stack as whole-plane blocks, in its order."""
    check_roster("student logits", stack.class_ids, VOCABULARY.ids)
    return _whole_planes(stack)


class _Argmax:
    """Running argmax over planes that arrive block by block, in any order.

    A pixel takes an incoming value where it is greater than the best so
    far, or equal to it from a lower class id, so ties go to the lowest id
    whatever the channel order, as ``np.argmax`` over id-sorted planes does.
    Values are finite, so the first plane's land everywhere.
    """

    def __init__(self, size: int):
        self.best = np.full(size, -np.inf, dtype=np.float32)
        self.arg = np.zeros(size, dtype=np.uint8)

    def __call__(self, class_id: int, start: int, block: np.ndarray) -> None:
        best = self.best[start : start + block.size]
        arg = self.arg[start : start + block.size]
        take = block > best
        take |= (block == best) & (arg > class_id)
        np.copyto(best, block, where=take)
        np.copyto(arg, class_id, where=take)


def force_mode(stack: LogitStack) -> np.ndarray:
    """Per-pixel argmax with leukocyte winners pushed down to subtypes.

    Where the global winner is the generic leukocyte class, the pixel is
    reassigned to the highest-valued subtype channel regardless of sign.
    """
    return reduce_force(_student_planes(stack), (stack.height, stack.width))


def reduce_force(blocks: Blocks, shape: tuple[int, int]) -> np.ndarray:
    """``force_mode`` over the blocks of a checked student stack of ``shape``."""
    size = shape[0] * shape[1]
    every, subtype = _Argmax(size), _Argmax(size)
    for class_id, start, block in blocks:
        every(class_id, start, block)
        if class_id in _SUBTYPE_SET:
            subtype(class_id, start, block)
    labels = every.arg
    np.copyto(labels, subtype.arg, where=labels == LEUKOCYTE)
    return labels.reshape(shape)


def panoptic_assign(
    stack: LogitStack, nuclei: InstanceMap
) -> tuple[np.ndarray, dict[int, int]]:
    """Nucleus-coherent assignment.

    Each nucleus takes the class whose logits sum highest over its pixels,
    restricted to nucleus-bearing classes; every non-nucleus pixel takes
    the argmax over region classes. Returns the label raster and the
    per-nucleus classes.
    """
    blocks = _student_planes(stack)
    if nuclei.shape != (stack.height, stack.width):
        raise ValueError("nuclei and logits dimensions differ")
    return reduce_panoptic(blocks, nuclei)


def reduce_panoptic(
    blocks: Blocks, nuclei: InstanceMap
) -> tuple[np.ndarray, dict[int, int]]:
    """``panoptic_assign`` over the blocks of a checked student stack of the
    nuclei's dimensions.

    Region planes go through a running argmax. Nucleus planes are gathered
    at the nucleus pixels and summed per nucleus once all have arrived, in
    pixel order, so the float64 sums match a sum over whole planes bit for bit.
    """
    h, w = nuclei.shape
    slot, gids = nuclei.slot, nuclei.gids
    region = _Argmax(h * w)

    def nucleus_blocks() -> Blocks:
        for class_id, start, block in blocks:
            if class_id in _NUCLEUS_ROW:
                yield class_id, start, block
            elif class_id in _NON_NUCLEUS_SET:
                region(class_id, start, block)

    vals = _reduce_cells(nucleus_blocks(), nuclei.index, _NUCLEUS_ROW)
    sums = np.stack([np.bincount(slot, weights=v, minlength=gids.size) for v in vals])
    best = NUCLEUS_IDS[np.argmax(sums, axis=0)]  # ties -> lowest id
    labels = region.arg.reshape(h, w)
    np.put(labels, nuclei.index, best[slot])
    return labels, dict(zip(gids.tolist(), best.tolist()))
