"""Teacher-aggregation pipeline: fuse tissue/cell logits, nucleus instances,
and mitosis candidates into one panoptic label mask.

Stages, in fixed order:

1. glass: the pinned threshold, or Otsu, on the Gaussian-smoothed
   grayscale of the H&E tile
2. tissue labels (smooth muscle / epithelial tissue contest, red blood
   cell overlay, stroma remainder), with glass applied last
3. per-pixel hierarchical cell classification inside nuclei, then a
   per-nucleus majority vote
4. fallback rules for still-undefined nuclei
5. mitosis candidate filtering and nucleus supersedence
6. final mask combination (nucleus classes paint over tissue labels)

``aggregate`` is the one driver: it blurs the cells that ``RunConfig``'s
crop and stride cut, one row band of cells per task, on threads while the
bundle is reduced, and ``_fuse`` runs all six stages on the smoothed
grayscale. Each band reads only its own rows of H&E, plus the blur's halo,
so no H&E frame is held; besides the blur, only the mitosis stage reads
H&E, and only the R+G+B sums of each candidate's ROI box (``roi_sums``),
which the bands fill as they pass. Stages 2-6 read the logit stacks only
through two reductions, the tissue label before glass, decided in row
slabs, and the cell logits at the nucleus pixels (``FusionInputs``). The
bands and the tissue slabs read through the bundle's one row reader,
``rows``, in one planar layout. A bundle in memory (``TeacherBundle``)
and a bundle streamed from disk (``container.BundleReader``) both give
the rows and the reductions. Both are checked by one rule,
``check_bundle``, before fusion reads them: a ``TeacherBundle`` on its
array shapes when it is built, and it cannot change after that; a reader
on its file headers when it is opened. ``aggregate`` checks no bundle
again.

Stages 3-6 keep each nucleus's class in one int16 array, in ``gids``
order: the vote fills it, stages 4 and 5 give masks that set class and
rule, and stage 6 paints it. The result keeps the vote's arrays as its
``provenance``, builds its ``classes`` dict once, and passes
``check_invariants``.

Everything is deterministic: identical bundles give bit-identical results.
A structurally separate per-pixel reference of the same rules lives in
``reference.py`` and is used as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import container
from .config import (
    BLUR_RADIUS,
    CARBON_RGB_SUM_MAX,
    DEFAULT_MPP,
    MITOSIS_MIN_AREA_PX,
    MITOSIS_ROI_RADIUS_PX,
    RunConfig,
    check_scale,
)
from .raster import (
    _BLOCK,
    InstanceMap,
    LogitStack,
    _merge_runs,
    _otsu_rows,
    _owned,
    _read_only,
    _run_pixels,
    blob_hulls,
    check_rgb_tile,
    gaussian_smooth,
    grayscale,
    label_pieces,
    otsu_threshold,
)
from .taxonomy import (
    BACKGROUND,
    EPITHELIAL_CELL_NUCLEUS,
    EPITHELIAL_TISSUE,
    FIBROBLAST,
    MITOTIC_CELL,
    N_CLASSES,
    RED_BLOOD_CELL,
    SMOOTH_MUSCLE,
    STROMA,
    VOCABULARY,
    ids_of,
)

# Channel rosters the two teacher stacks must carry, by class name.
TISSUE_CHANNELS = ("smooth_muscle", "epithelial_tissue", "red_blood_cell")
CELL_CHANNELS = (
    "leukocyte",
    "endothelial_cell",
    "red_blood_cell",
    "lymphocyte",
    "plasma_cell",
    "myeloid_cell",
    "eosinophil",
    "neutrophil",
    "smooth_muscle",
    "epithelial_tissue",
)
TISSUE_IDS = ids_of(TISSUE_CHANNELS)
CELL_IDS = ids_of(CELL_CHANNELS)
# The roster each logit part of a bundle carries.
_ROSTERS = {"tissue_logits": TISSUE_IDS, "cell_logits": CELL_IDS}
# Row of each cell channel in ``FusionInputs.cell_vals``.
_CELL_ROW = {c: i for i, c in enumerate(CELL_IDS)}
# Per hierarchy level: (cell_vals rows, class ids), both ascending by id.
_LEVELS = [
    (np.array([_CELL_ROW[c] for c in sorted(level)]), np.array(sorted(level), dtype=np.int16))
    for level in VOCABULARY.levels
]

# Streams of logit blocks, ``(class id, flat start, f32 block)``; see ``fusion_inputs``.
Blocks = Iterable[tuple[int, int, np.ndarray]]

# Internal sentinel for "no class"; the public API uses None.
UNDEFINED = -1
# ``Decisions.rule`` codes, in ``gids`` order; a later rule overrides an earlier one.
RULES = ("undefined", "vote", "fallback_epithelial", "fallback_fibroblast", "mitosis")


# ---------------------------------------------------------------------------
# Bundle and result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TeacherBundle:
    """All teacher outputs for one tile, checked when built.

    ``mitosis_candidates`` holds (x, y, score) triples; x is the column.
    Candidates may fall inside the declared halo just outside the tile.
    The bundle cannot change once built: its fields are fixed, ``he`` is
    made read-only (copied first when it is a view), the logit stacks are
    frozen, and the nuclei cannot change. ``dataclasses.replace`` and
    ``copy`` build, and so check, a new one.
    """

    he: np.ndarray
    tissue_logits: LogitStack
    cell_logits: LogitStack
    nuclei: InstanceMap
    mitosis_candidates: tuple = ()
    halo: int = 0
    mpp: float = DEFAULT_MPP

    def __post_init__(self):
        candidates = tuple((float(x), float(y), float(s)) for x, y, s in self.mitosis_candidates)
        object.__setattr__(self, "mitosis_candidates", candidates)
        object.__setattr__(self, "he", _owned(np.asarray(self.he)))
        self.validate()
        _read_only(self.he)

    def __reduce__(self):
        """Pickled and copied through the constructor, which checks the copy."""
        return TeacherBundle, tuple(getattr(self, f.name) for f in fields(self))

    def validate(self) -> None:
        """The checks the parts cannot make alone: the scale, the H&E tile,
        and ``check_bundle`` on the array shapes and channel ids."""
        check_scale(self.mpp, self.halo, "bundle")
        check_rgb_tile(self.he)
        stacks = {"tissue_logits": self.tissue_logits, "cell_logits": self.cell_logits}
        parts = {k: ((s.height, s.width), s.class_ids) for k, s in stacks.items()}
        parts["nuclei"] = (self.nuclei.shape, None)
        check_bundle(self.he.shape[:2], parts, self.mitosis_candidates, self.halo or 0)

    @property
    def shape(self) -> tuple[int, int]:
        return self.he.shape[:2]

    def rows(self, name: str, top: int, bottom: int) -> np.ndarray:
        """Rows ``[top, bottom)`` of ``he`` or ``tissue_logits`` as
        ``(channels, bottom - top, width)`` planes: H&E copied into planes,
        tissue a view of the stack."""
        if name == "he":
            return np.ascontiguousarray(np.moveaxis(self.he[top:bottom], 2, 0))
        return self.tissue_logits.planes[:, top:bottom]

    def reduce(self) -> "FusionInputs":
        """Reduce the checked bundle: tissue in row slabs, each whole cell
        logit plane as one block."""
        return fusion_inputs(
            self.nuclei, self, self.tissue_logits.class_ids, _whole_planes(self.cell_logits)
        )


def check_roster(name: str, class_ids: Sequence[int], wanted: Sequence[int]) -> None:
    """A logit stack must carry exactly the wanted channels, in any order."""
    want_ids, have_ids = set(wanted), set(class_ids)
    if len(have_ids) != len(class_ids):
        raise ValueError(f"{name} channels must be distinct")
    if have_ids != want_ids:
        missing = sorted(VOCABULARY.name_of(c) for c in want_ids - have_ids)
        extra = sorted(VOCABULARY.name_of(c) for c in have_ids - want_ids)
        raise ValueError(f"{name} channel mismatch: missing {missing}, unexpected {extra}")


def check_bundle(frame: tuple, parts: Mapping, candidates: Sequence[tuple], halo: int) -> None:
    """The bundle rule, for arrays and files alike. ``parts`` maps a part's
    name to ``((height, width), class ids or None)``: every part shares the
    H&E ``frame``, each logit part carries its ``_ROSTERS`` entry, and the
    candidates lie inside the tile plus ``halo``, with scores in [0, 1]."""
    for name, (shape, class_ids) in parts.items():
        if tuple(shape) != tuple(frame):
            raise ValueError(f"{name} does not share the H&E dimensions")
        if class_ids is not None:
            check_roster(name, class_ids, _ROSTERS[name])
    h, w = frame
    for x, y, score in candidates:
        if not (-halo <= x < w + halo and -halo <= y < h + halo):
            raise ValueError(f"candidate ({x}, {y}) outside tile plus halo {halo}")
        if not 0.0 <= score <= 1.0:
            raise ValueError("candidate score must lie in [0, 1]")


# ---------------------------------------------------------------------------
# Reductions: all that stages 2-6 read of the logit stacks
# ---------------------------------------------------------------------------


@dataclass
class FusionInputs:
    """A checked bundle with its logit stacks reduced to what fusion reads.

    ``tissue_pre`` is the tissue label before glass is applied; ``_fuse``
    consumes it, writing glass and then the nucleus classes into it.
    ``cell_vals`` holds the cell logits at the nucleus pixels, one row per
    ``CELL_IDS`` channel, columns in ``nuclei.index`` order.
    ``TeacherBundle.reduce`` and ``container.BundleReader.reduce`` both
    build it through ``fusion_inputs``. It holds neither H&E nor the mitosis
    candidates: ``aggregate`` reads H&E band by band into the smoothed
    grayscale and the candidates' ROI sums, which ``_fuse`` takes beside it
    with the bundle's candidates.
    """

    nuclei: InstanceMap
    tissue_pre: np.ndarray  # (H, W) uint8, C-contiguous; consumed by _fuse
    cell_vals: np.ndarray  # (len(CELL_IDS), N) float32


def _reduce_tissue(bundle, class_ids: Sequence[int]) -> np.ndarray:
    """Tissue labels before glass, from the tissue planes (channels in
    ``class_ids`` order) read in row slabs by ``bundle.rows``, each slab at
    most ``container._CHUNK_BYTES``. The smooth-muscle / epithelium contest
    and the red-blood-cell overlay are decided slab by slab, and each slab
    is released before the next is read, so no plane or mask of the frame
    is held.
    """
    h, w = bundle.shape
    step = max(1, container._CHUNK_BYTES // (4 * len(class_ids) * w))
    order = [class_ids.index(c) for c in (SMOOTH_MUSCLE, EPITHELIAL_TISSUE, RED_BLOOD_CELL)]
    labels = np.empty((h, w), dtype=np.uint8)
    for top in range(0, h, step):
        planes = bundle.rows("tissue_logits", top, min(top + step, h))
        sm, epi, rbc = (planes[i] for i in order)
        out = labels[top : top + step]
        np.copyto(out, np.where(epi > sm, np.uint8(EPITHELIAL_TISSUE), np.uint8(SMOOTH_MUSCLE)))
        np.copyto(out, np.uint8(STROMA), where=(sm <= 0) & (epi <= 0))
        np.copyto(out, np.uint8(RED_BLOOD_CELL), where=rbc > 0)
        del planes, sm, epi, rbc  # the slab goes before the next is read
    return labels


def _reduce_cells(blocks: Blocks, index: np.ndarray, rows: Mapping[int, int]) -> np.ndarray:
    """Logits at the pixels of the ascending flat ``index``, in row
    ``rows[class id]`` for each class the blocks carry. A block covering
    flat indices ``[start, start + size)`` fills the columns whose pixels
    fall in it."""
    vals = np.empty((len(rows), index.size), dtype=np.float32)
    for class_id, start, block in blocks:
        lo, hi = np.searchsorted(index, (start, start + block.size))
        vals[rows[class_id], lo:hi] = block[index[lo:hi] - start]
    return vals


def _whole_planes(stack: LogitStack) -> Blocks:
    """Each plane of ``stack`` as one flat block: (class id, 0, block)."""
    for class_id, plane in zip(stack.class_ids, stack.planes):
        yield class_id, 0, plane.ravel()


def fusion_inputs(
    nuclei: InstanceMap, bundle, tissue_ids: Sequence[int], cell_blocks: Blocks
) -> FusionInputs:
    """Reduce the tissue logits, then the cell logits, into ``FusionInputs``.

    The tissue planes come in row slabs from ``bundle.rows``, channels in
    ``tissue_ids`` order (see ``_reduce_tissue``). The cell stream yields
    ``(class id, flat start, block)``: the f32 values of one channel's plane
    at flat indices ``[start, start + block.size)``, blocks of one plane in
    order and planes one after another, as they lie in a file. The parts
    must already be checked against each other.
    """
    return FusionInputs(
        nuclei=nuclei,
        tissue_pre=_reduce_tissue(bundle, tissue_ids),
        cell_vals=_reduce_cells(cell_blocks, nuclei.index, _CELL_ROW),
    )


class Decisions(NamedTuple):
    """How each nucleus got its final class: read-only arrays in ``gids`` order."""

    rule: np.ndarray  # (m,) int8 codes into RULES
    votes: np.ndarray  # (m, N_CLASSES + 1): column 0 undefined, column c + 1 class c
    level_fired: np.ndarray  # (m, 4) override hits per hierarchy level


@dataclass
class AggregationResult:
    semantic: np.ndarray  # (H, W) uint8 class ids
    instances: InstanceMap
    classes: dict[int, Optional[int]]  # nucleus id -> final class (None undefined)
    mitosis: InstanceMap
    provenance: Decisions

    def check_invariants(self) -> None:
        """Every classed nucleus pixel carries its nucleus' class, and every
        nucleus touching the mitosis mask is mitotic. One pass over the
        nucleus pixels and one over the mitosis pixels; ``semantic`` is read
        at the flat ``index``, so it may be any view."""
        slot, gids = self.instances.slot, self.instances.gids
        codes = [self.classes[g] for g in gids.tolist()]
        want = np.array(
            [UNDEFINED if c is None else c for c in codes], dtype=np.int16
        )[slot]
        wrong = (want != UNDEFINED) & (np.take(self.semantic, self.instances.index) != want)
        if wrong.any():
            gid = gids[slot[np.argmax(wrong)]]
            raise AssertionError(f"nucleus {gid}: semantic/instance class mismatch")
        for gid in _nuclei_under(self.instances, self.mitosis).tolist():
            if self.classes[gid] != MITOTIC_CELL:
                raise AssertionError(f"nucleus {gid}: mitosis supersedence violated")


# ---------------------------------------------------------------------------
# Stage 1: the blur, cell by cell
# ---------------------------------------------------------------------------


def axis_offsets(extent: int, crop: int, stride: int) -> list[int]:
    """Window start offsets along one axis, final window clamped."""
    if extent <= crop:
        return [0]
    offsets = list(range(0, extent - crop + 1, stride))
    if offsets[-1] + crop < extent:
        offsets.append(extent - crop)
    return offsets


def tile_cells(shape: tuple[int, int], cfg: RunConfig) -> list[tuple[slice, slice]]:
    """The row-major (rows, cols) cells of ``cfg``'s crop and stride over an
    (height, width) frame.

    On each axis a cell runs from one window origin of ``axis_offsets`` to
    the next, or to the image edge for the last, so the cells partition the
    frame.
    """

    def spans(extent: int) -> list[slice]:
        starts = axis_offsets(extent, cfg.crop_px, cfg.stride_px)
        return [slice(a, b) for a, b in zip(starts, starts[1:] + [extent])]

    return [(rows, cols) for rows in spans(shape[0]) for cols in spans(shape[1])]


def _blur_band(
    bundle, band: tuple[slice, list[slice]], gray: np.ndarray, sums: np.ndarray, points: np.ndarray
) -> None:
    """Write one band's smoothed grayscale into ``gray``, and its rows of the
    candidates' ROI boxes into ``sums``.

    The band's rows are read with a ``BLUR_RADIUS`` halo, clamped to the
    image, as ``(3, rows, width)`` planes by ``bundle.rows``. Each cell is
    blurred with the same margin on its columns, so its pixels read the
    same neighbours as in a full-frame blur.
    """
    rows, spans = band
    h, w = gray.shape
    y0, y1 = max(rows.start - BLUR_RADIUS, 0), min(rows.stop + BLUR_RADIUS, h)
    planes = bundle.rows("he", y0, y1)
    own = slice(rows.start - y0, rows.stop - y0)
    for cols in spans:
        x0, x1 = max(cols.start - BLUR_RADIUS, 0), min(cols.stop + BLUR_RADIUS, w)
        # the blur takes (rows, cols, 3), which bench/tracer.py counts as
        # rows x cols; a channel-last view of the planes copies nothing
        smooth = gaussian_smooth(np.moveaxis(planes[:, :, x0:x1], 0, 2))
        gray[rows, cols] = grayscale(smooth[own, cols.start - x0 : cols.stop - x0])
    _fill_roi_sums(sums, points, planes[:, own], rows.start)


# ---------------------------------------------------------------------------
# Stage 3: hierarchical per-pixel classification and nucleus voting
# ---------------------------------------------------------------------------


def _vote_groups(
    vals: np.ndarray, slot: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the pixels, the columns of ``vals`` (rows in ``CELL_IDS``
    order), then take a majority vote per nucleus; pixel ``i`` belongs to
    nucleus ``slot[i]`` of ``m``.

    A pixel walks hierarchy levels 1..4: at each level the winning channel
    is the argmax (ties to the lowest class id), and it overrides the
    running label, at first UNDEFINED, only when positive. Returns three
    arrays over the nuclei: the voted int16 class id (UNDEFINED where
    undefined wins a strict plurality; defined ties go to the lowest class
    id); the ``(m, N_CLASSES + 1)`` vote counts, column 0 undefined and
    column ``c + 1`` class ``c``; and the ``(m, 4)`` per-level override hits.
    """
    labels = np.full(slot.size, UNDEFINED, dtype=np.int16)
    fired = np.empty((m, len(_LEVELS)), dtype=np.intp)
    for lvl, (plane_rows, ids) in enumerate(_LEVELS):
        sub = vals[plane_rows]  # (k, N)
        win = np.argmax(sub, axis=0)  # first max -> lowest id
        pos = np.take_along_axis(sub, win[None, :], axis=0)[0] > 0
        labels[pos] = ids[win[pos]]
        fired[:, lvl] = np.bincount(slot[pos], minlength=m)
    width = N_CLASSES + 1  # column 0 = undefined, column c + 1 = class id c
    key = slot.astype(np.int64) * width + (labels.astype(np.int64) + 1)
    counts = np.bincount(key, minlength=m * width).reshape(m, width)
    defined = counts[:, 1:]  # every class id, ascending; ties go to the lowest
    winner = np.argmax(defined, axis=1).astype(np.int16)
    voted = np.where(counts[:, 0] > defined.max(axis=1), np.int16(UNDEFINED), winner)
    return voted, counts, fired


# ---------------------------------------------------------------------------
# Stage 4: fallback rules
# ---------------------------------------------------------------------------


def fallback_rules(
    nuclei: InstanceMap, voted: np.ndarray, tissue: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve undefined nuclei from tissue context.

    ``voted`` is the class per nucleus, UNDEFINED for none, in ``gids``
    order. Returns two disjoint masks over the nuclei:
    the undefined ones with more than half their pixels on epithelial
    tissue, which become epithelial_cell_nucleus; and the other undefined
    ones with more than half on stroma and the fibroblast teacher type
    (teacher name `connective`), which become fibroblast.
    """
    slot, gids = nuclei.slot, nuclei.gids
    tis, m = np.take(tissue, nuclei.index), gids.size
    half, undefined = np.bincount(slot, minlength=m) / 2, voted == UNDEFINED
    epithelial = undefined & (np.bincount(slot[tis == EPITHELIAL_TISSUE], minlength=m) > half)
    fibroblast = undefined & ~epithelial & (np.bincount(slot[tis == STROMA], minlength=m) > half)
    types = [nuclei.attrs[g].teacher_type for g in gids[fibroblast].tolist()]
    fibroblast[fibroblast] = [t == FIBROBLAST for t in types]
    return epithelial, fibroblast


# ---------------------------------------------------------------------------
# Stage 5: mitosis detection and supersedence
# ---------------------------------------------------------------------------


_BATCH = 32  # candidates per batch: a peak of about 2 MB at a 30 px radius


def _points(candidates: Sequence[tuple]) -> np.ndarray:
    """The candidates' ``(x, y)`` as an ``(n, 2)`` float64 array."""
    return np.asarray([c[:2] for c in candidates], dtype=np.float64).reshape(-1, 2)


def _roi_boxes(n: int) -> np.ndarray:
    """``n`` blank ROI boxes for ``_fill_roi_sums``: -1 marks a pixel outside the frame."""
    side = 2 * MITOSIS_ROI_RADIUS_PX + 1
    return np.full((n, side, side), -1, dtype=np.int16)


def _fill_roi_sums(sums: np.ndarray, points: np.ndarray, planes: np.ndarray, top: int) -> None:
    """Write the R+G+B sums of frame rows ``[top, top + planes.shape[1])``,
    given as ``(3, rows, width)`` planes, into the ROI boxes of ``points``
    that reach them: box ``i`` covers the rows and columns from
    ``ceil(y - r)`` and ``ceil(x - r)`` on, ``2r + 1`` of each."""
    r = MITOSIS_ROI_RADIUS_PX
    side, bottom, w = 2 * r + 1, top + planes.shape[1], planes.shape[2]
    box_tops = np.ceil(points[:, 1] - r).astype(np.intp).tolist()
    box_lefts = np.ceil(points[:, 0] - r).astype(np.intp).tolist()
    for i, (y, x) in enumerate(zip(box_tops, box_lefts)):
        y0, y1 = max(y, top), min(y + side, bottom)
        x0, x1 = max(x, 0), min(x + side, w)
        if y0 < y1 and x0 < x1:
            rgb = planes[:, y0 - top : y1 - top, x0:x1]
            out = sums[i, y0 - y : y1 - y, x0 - x : x1 - x]
            np.add(rgb[0], rgb[1], out=out, dtype=np.int16)
            out += rgb[2]


def roi_sums(candidates: Sequence[tuple], he: np.ndarray) -> np.ndarray:
    """The candidates' ROI boxes of an RGB tile as ``(n, 2r + 1, 2r + 1)``
    int16 R+G+B sums, -1 outside the frame (``r`` is
    ``MITOSIS_ROI_RADIUS_PX``): all that ``detect_mitosis`` reads of H&E.
    ``aggregate`` fills the same boxes band by band."""
    check_rgb_tile(he)
    points = _points(candidates)
    sums = _roi_boxes(len(points))
    _fill_roi_sums(sums, points, np.moveaxis(he, 2, 0), 0)
    return sums


def mitosis_hulls(
    candidates: Sequence[tuple], pixels: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The H&E-only part of ``detect_mitosis``: per batch of ``_BATCH``
    candidates, the frame row intervals ``(hull, row, start, stop)`` of
    their hulls (as ``raster.blob_hulls`` gives them), numbered in
    candidate order, then blob order. ``pixels`` is the candidates'
    ``roi_sums``, or the RGB tile they are taken from, batch by batch.
    Reads neither the blur nor the tissue.
    """
    points = _points(candidates)
    side = 2 * MITOSIS_ROI_RADIUS_PX + 1
    tile = pixels.dtype == np.uint8
    if tile:
        check_rgb_tile(pixels)
    elif pixels.dtype != np.int16 or pixels.shape != (len(points), side, side):
        raise ValueError("ROI sums must be int16, (candidates, 2r + 1, 2r + 1)")
    for i in range(0, len(points), _BATCH):
        batch = points[i : i + _BATCH]
        yield _batch_hulls(batch, roi_sums(batch, pixels) if tile else pixels[i : i + _BATCH])


def _batch_hulls(
    points: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``mitosis_hulls`` of one batch of points ``(x, y)`` with their ROI
    ``sums``; its arrays are freed on return."""
    r = MITOSIS_ROI_RADIUS_PX
    side = np.arange(2 * r + 1)
    xs, ys = points[:, :, None].transpose(1, 0, 2)  # (n, 1) each
    top, left = np.ceil(ys - r).astype(np.intp), np.ceil(xs - r).astype(np.intp)
    gy, gx = top + side, left + side  # (n, 2r + 1) frame rows and columns
    in_y, in_x = gy <= np.floor(ys + r), gx <= np.floor(xs + r)
    circle = ((gy - ys) ** 2)[:, :, None] + ((gx - xs) ** 2)[:, None, :] <= float(r) * float(r)
    circle &= in_y[:, :, None] & in_x[:, None, :]
    circle &= sums >= 0  # inside the frame
    count = circle.sum(axis=(1, 2))
    ranked = np.sort(np.where(circle, sums, 0x7FFF).reshape(count.size, -1), axis=1)
    mid = np.take_along_axis(ranked, np.stack([(count - 1) // 2, count // 2], axis=1), axis=1)
    del ranked  # the rest reads the sums: fewer of the batch's arrays live at once
    live = (count > 0) & (mid.sum(axis=1) > 2 * CARBON_RGB_SUM_MAX)  # not carbon dust
    circle, gray, top, left = circle[live], (sums[live] + 1) // 3, top[live], left[live]
    n = live.sum()
    # circle pixels come candidate by candidate, count[live] of each
    slot = np.repeat(np.arange(0, 256 * n, 256), count[live])
    slot += gray[circle]
    hist = np.bincount(slot, minlength=256 * n).reshape(n, 256)
    dark = np.zeros((n, side.size + 1, side.size), dtype=bool)  # a blank row below each
    dark[:, :-1] = circle & (gray <= _otsu_rows(hist)[:, None, None])
    hull, row, start, stop = blob_hulls(dark.reshape(-1, side.size), MITOSIS_MIN_AREA_PX)
    cand, row = np.divmod(row, side.size + 1)
    x0 = left[cand, 0]
    return hull, top[cand, 0] + row, x0 + start, x0 + stop


def detect_mitosis(
    candidates: Sequence[tuple], pixels: np.ndarray, tissue: np.ndarray
) -> InstanceMap:
    """Filter mitosis candidates into hull regions of the frame of ``tissue``.
    ``pixels`` is the candidates' ``roi_sums``, or the RGB tile to take them
    from batch by batch.

    Per candidate: clip a circular ROI of radius ``MITOSIS_ROI_RADIUS_PX``
    at the tile border; reject carbon dust, a median RGB sum <=
    ``CARBON_RGB_SUM_MAX``; Otsu the ROI grays and keep the dark side; keep
    8-connected blobs of at least ``MITOSIS_MIN_AREA_PX``; keep their convex
    hulls that overlap epithelial tissue. Region ids follow raster order
    over the hulls' union.

    Each step runs on a batch of candidates (``mitosis_hulls``) exactly as
    on one: the same float64 circle test over unclipped ROI boxes; the
    median as ``(lo + hi) / 2`` of the middle two sorted circle sums, in
    integers; ``_otsu_rows`` of one histogram per candidate; one labelling
    of the dark masks, stacked with a blank row between candidates. A hull
    is row intervals (``raster.blob_hulls``). No hole is filled, yet hull
    and area test are the filled blob's: a hole pixel's row holds blob
    pixels on both sides, or the hole would reach the border by a 4-path,
    so it lies in the hull; and while ``MITOSIS_MIN_AREA_PX <= 4`` every
    blob with a hole (the smallest is the 4-pixel diamond) passes. Kept
    intervals join the union's runs batch by batch, so the working memory is
    one batch and the union, which ``label_pieces`` labels 8-connected.
    """
    shape = tissue.shape
    union = np.zeros((3, 0), dtype=np.intp)  # rows, starts and stops of its runs
    for hull, row, start, stop in mitosis_hulls(candidates, pixels):
        epi = tissue[_run_pixels(row, start, stop)] == EPITHELIAL_TISSUE
        on_epi = np.repeat(hull, stop - start)[epi]
        keep = (np.bincount(on_epi, minlength=hull.size) > 0)[hull]
        union = np.concatenate([union, np.stack([row, start, stop])[:, keep]], axis=1)
        union = np.stack(_merge_runs(shape, *union))
    return label_pieces(shape, *union)


def _nuclei_under(nuclei: InstanceMap, mitosis: InstanceMap) -> np.ndarray:
    """The ids of the nuclei with a pixel under a mitosis region, ascending:
    each mitosis pixel is looked up in the nuclei's ascending flat index."""
    at = np.searchsorted(nuclei.index, mitosis.index)
    hit = at < nuclei.index.size
    hit[hit] = nuclei.index[at[hit]] == mitosis.index[hit]
    return np.unique(nuclei.gids[nuclei.slot[at[hit]]])


def apply_mitosis(nuclei: InstanceMap, mitosis: InstanceMap) -> np.ndarray:
    """The mask over the nuclei, in ``gids`` order, of those intersecting
    the mitosis regions: they become mitotic_cell, whatever class they had."""
    return np.isin(nuclei.gids, _nuclei_under(nuclei, mitosis))


# ---------------------------------------------------------------------------
# Stage 6: full composition
# ---------------------------------------------------------------------------


def aggregate(
    bundle, config: Optional[RunConfig] = None, workers: int = 1
) -> AggregationResult:
    """Run the whole pipeline on one bundle.

    ``bundle`` is a ``TeacherBundle`` or an open ``container.BundleReader``,
    each checked when it was built or opened: it gives its frame ``shape``,
    its ``mitosis_candidates``, rows of H&E and tissue by ``rows`` and its
    ``FusionInputs`` by ``reduce``. The config's cells are grouped in row
    bands, one per row of cells, and the bands are blurred on up to
    ``workers`` threads while this thread reduces the bundle. A band reads
    its rows of H&E plus a ``BLUR_RADIUS`` halo, writes its cells into one
    grayscale canvas and its rows of the candidates' ROI boxes into one
    array of R+G+B sums; bands never overlap, so no H&E or float64 frame is
    held, and the result is the same for any crop, stride and worker count.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cfg = config or RunConfig()
    cells = tile_cells(bundle.shape, cfg)  # row-major: a band is a run of one rows slice
    bands = [(rows, [c for _, c in band]) for rows, band in groupby(cells, itemgetter(0))]
    gray = np.empty(bundle.shape, dtype=np.uint8)
    points = _points(bundle.mitosis_candidates)
    sums = _roi_boxes(len(points))
    if len(bands) == 1:
        # a tile within one crop's rows: a thread costs more than its overlap
        # with ``reduce`` saves, 7 % of a 256² tile's time on a 2-CPU host
        _blur_band(bundle, bands[0], gray, sums, points)
        return _fuse(bundle.reduce(), bundle.mitosis_candidates, gray, sums, cfg)
    from concurrent.futures import ThreadPoolExecutor  # deferred: start-up loads no pool

    pool = ThreadPoolExecutor(max_workers=min(workers, len(bands)))
    try:
        blurs = [pool.submit(_blur_band, bundle, band, gray, sums, points) for band in bands]
        inputs = bundle.reduce()
        for blur in blurs:
            blur.result()
    finally:
        pool.shutdown(cancel_futures=True)  # on error, pending bands never start
    return _fuse(inputs, bundle.mitosis_candidates, gray, sums, cfg)


def _fuse(
    inputs: FusionInputs, candidates: tuple, gray: np.ndarray, sums: np.ndarray, cfg: RunConfig
) -> AggregationResult:
    """All six stages, from the smoothed grayscale
    (``grayscale(gaussian_smooth(he))``) and the ``candidates``' ROI ``sums``
    (``roi_sums(candidates, he)``); the fallback and mitosis masks set class
    and rule code together, in ``RULES`` order. ``inputs.tissue_pre`` is
    consumed: glass is written into it in place, block by block, and it
    becomes the result's ``semantic``."""
    t = cfg.background_threshold
    threshold = otsu_threshold(gray) if t is None else t
    tissue = inputs.tissue_pre
    step = max(1, _BLOCK // tissue.shape[1])
    for y in range(0, tissue.shape[0], step):
        np.copyto(tissue[y : y + step], np.uint8(BACKGROUND), where=gray[y : y + step] > threshold)
    nuclei = inputs.nuclei
    slot, gids = nuclei.slot, nuclei.gids
    cls, votes, fired = _vote_groups(inputs.cell_vals, slot, gids.size)
    rule = (cls != UNDEFINED).astype(np.int8)  # RULES codes 0 and 1
    epithelial, fibroblast = fallback_rules(nuclei, cls, tissue)
    mitosis = detect_mitosis(candidates, sums, tissue)
    mitotic = apply_mitosis(nuclei, mitosis)
    masks = (epithelial, EPITHELIAL_CELL_NUCLEUS), (fibroblast, FIBROBLAST), (mitotic, MITOTIC_CELL)
    for code, (mask, final) in enumerate(masks, start=2):
        cls[mask], rule[mask] = final, code

    painted = cls[slot]
    keep = painted != UNDEFINED
    semantic = tissue  # nucleus classes paint over the tissue labels
    np.put(semantic, nuclei.index[keep], painted[keep])

    result = AggregationResult(
        semantic=semantic,
        instances=nuclei,
        classes={g: None if c == UNDEFINED else c for g, c in zip(gids.tolist(), cls.tolist())},
        mitosis=mitosis,
        provenance=Decisions(*(_read_only(a) for a in (rule, votes, fired))),
    )
    result.check_invariants()
    return result
