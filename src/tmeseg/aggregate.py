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

``_fuse`` runs all six on the smoothed grayscale; ``aggregate`` blurs the
whole frame for it and ``tiling.tiled_aggregate`` blurs it cell by cell.
Stages 2-6 read the logit stacks only through two reductions, the tissue
label before glass and the cell logits at the nucleus pixels
(``FusionInputs``), which a bundle in memory (``TeacherBundle.reduce``) and
a bundle streamed from disk (``container.BundleReader``) both produce.

Everything is deterministic: identical bundles give bit-identical results.
A structurally separate per-pixel reference of the same rules lives in
``reference.py`` and is used as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .config import RunConfig
from .raster import (
    InstanceMap,
    LogitStack,
    RegionList,
    check_rgb_tile,
    contours,
    convex_hull,
    gaussian_smooth,
    grayscale,
    label_pieces,
    otsu_threshold,
    rasterize_hull,
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


# ---------------------------------------------------------------------------
# Bundle and result containers
# ---------------------------------------------------------------------------


@dataclass
class TeacherBundle:
    """All teacher outputs for one tile.

    ``mitosis_candidates`` holds (x, y, score) triples; x is the column.
    Candidates may fall inside the declared halo just outside the tile.
    """

    he: np.ndarray
    tissue_logits: LogitStack
    cell_logits: LogitStack
    nuclei: InstanceMap
    mitosis_candidates: tuple = ()
    halo: int = 0
    mpp: float = 0.25

    def __post_init__(self):
        self.mitosis_candidates = tuple(
            (float(x), float(y), float(s)) for x, y, s in self.mitosis_candidates
        )

    @property
    def height(self) -> int:
        return self.he.shape[0]

    @property
    def width(self) -> int:
        return self.he.shape[1]

    def validate(self) -> None:
        check_rgb_tile(self.he)
        frame = self.he.shape[:2]
        for name, stack, wanted in (
            ("tissue_logits", self.tissue_logits, TISSUE_IDS),
            ("cell_logits", self.cell_logits, CELL_IDS),
        ):
            check_part(name, (stack.height, stack.width), frame)
            check_roster(name, stack.class_ids, wanted)
            stack.require_finite()
        check_part("nuclei", self.nuclei.ids.shape, frame)
        self.nuclei.validate()
        check_candidates(self.mitosis_candidates, frame, self.halo)

    def reduce(self) -> "FusionInputs":
        """Validate, then feed each whole logit plane through the block reducers."""
        self.validate()
        return fusion_inputs(
            self.he,
            self.nuclei,
            _whole_planes(self.tissue_logits),
            _whole_planes(self.cell_logits),
            self.mitosis_candidates,
        )


def check_part(name: str, shape: tuple, frame: tuple) -> None:
    """A bundle part's (height, width) must equal the H&E frame's."""
    if tuple(shape) != tuple(frame):
        raise ValueError(f"{name} does not share the H&E dimensions")


def check_roster(name: str, class_ids: Sequence[int], wanted: Sequence[int]) -> None:
    """A logit stack must carry exactly the wanted channels, in any order."""
    want_ids, have_ids = set(wanted), set(class_ids)
    if len(have_ids) != len(class_ids):
        raise ValueError(f"{name} channels must be distinct")
    if have_ids != want_ids:
        missing = sorted(VOCABULARY.name_of(c) for c in want_ids - have_ids)
        extra = sorted(VOCABULARY.name_of(c) for c in have_ids - want_ids)
        raise ValueError(f"{name} channel mismatch: missing {missing}, unexpected {extra}")


def check_candidates(candidates: Sequence[tuple], frame: tuple, halo: int) -> None:
    """Candidates lie inside the tile plus halo, with scores in [0, 1]."""
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
    """A validated bundle with its logit stacks reduced to what fusion reads.

    ``tissue_pre`` is the tissue label before glass is applied;
    ``cell_vals`` holds the cell logits at the nucleus pixels, one row per
    ``CELL_IDS`` channel, columns in ``groups`` (``nuclei.pixel_groups()``)
    order. ``TeacherBundle.reduce`` and ``container.BundleReader.reduce``
    both build it through ``fusion_inputs``.
    """

    he: np.ndarray
    nuclei: InstanceMap
    groups: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    tissue_pre: np.ndarray  # (H, W) uint8
    cell_vals: np.ndarray  # (len(CELL_IDS), N) float32
    mitosis_candidates: tuple


def _reduce_tissue(blocks: Blocks, shape: tuple) -> np.ndarray:
    """Tissue labels before glass, from tissue-logit blocks in any channel order.

    Holds at most one plane of the smooth-muscle / epithelium pair; the
    contest is decided block by block as the other plane arrives. Positive
    red-blood-cell pixels are kept as a mask and overlaid last.
    """
    size = shape[0] * shape[1]
    labels = np.full(size, STROMA, dtype=np.uint8)
    rbc = np.zeros(size, dtype=bool)
    held_id, held = None, None  # the first of the pair to arrive
    for class_id, start, block in blocks:
        span = slice(start, start + block.size)
        if class_id == RED_BLOOD_CELL:
            np.greater(block, 0, out=rbc[span])
        elif held_id in (None, class_id):
            if held is None:
                held_id, held = class_id, np.empty(size, dtype=np.float32)
            held[span] = block
        else:
            sm, epi = (block, held[span]) if class_id == SMOOTH_MUSCLE else (held[span], block)
            winner = np.where(epi > sm, np.uint8(EPITHELIAL_TISSUE), np.uint8(SMOOTH_MUSCLE))
            labels[span] = np.where((sm > 0) | (epi > 0), winner, np.uint8(STROMA))
    labels[rbc] = RED_BLOOD_CELL
    return labels.reshape(shape)


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
    he: np.ndarray,
    nuclei: InstanceMap,
    tissue_blocks: Blocks,
    cell_blocks: Blocks,
    mitosis_candidates: Sequence[tuple],
) -> FusionInputs:
    """Reduce two streams of logit blocks, in that order, into ``FusionInputs``.

    Each stream yields ``(class id, flat start, block)``: the f32 values of
    one channel's plane at flat indices ``[start, start + block.size)``.
    Blocks of one plane arrive in order and planes one after another, as
    they lie in a file. The parts must already be checked against each other.
    """
    groups = nuclei.pixel_groups()
    h, w = nuclei.ids.shape
    tissue_pre = _reduce_tissue(tissue_blocks, (h, w))
    rows, cols = groups[0], groups[1]
    return FusionInputs(
        he=he,
        nuclei=nuclei,
        groups=groups,
        tissue_pre=tissue_pre,
        cell_vals=_reduce_cells(cell_blocks, rows * w + cols, _CELL_ROW),
        mitosis_candidates=tuple(mitosis_candidates),
    )


@dataclass
class NucleusDecision:
    """How one nucleus got its final class."""

    rule: str  # vote | fallback_epithelial | fallback_fibroblast | mitosis | undefined
    votes: dict[int, int] = field(default_factory=dict)  # UNDEFINED key = -1
    level_fired: tuple[int, int, int, int] = (0, 0, 0, 0)


@dataclass
class AggregationResult:
    semantic: np.ndarray  # (H, W) uint8 class ids
    instances: InstanceMap
    classes: dict[int, Optional[int]]  # nucleus id -> final class (None undefined)
    mitosis: RegionList | InstanceMap  # RegionList from the pipeline; check_invariants takes either
    provenance: dict[int, NucleusDecision]

    def check_invariants(self) -> None:
        """Every classed nucleus pixel carries its nucleus' class, and every
        nucleus touching the mitosis mask is mitotic. One pass over the
        nucleus pixels and one over the mitosis pixels."""
        rows, cols, slot, gids = self.instances.pixel_groups()
        codes = [self.classes[g] for g in gids.tolist()]
        want = np.array(
            [UNDEFINED if c is None else c for c in codes], dtype=np.int16
        )[slot]
        wrong = (want != UNDEFINED) & (self.semantic[rows, cols] != want)
        if wrong.any():
            gid = gids[slot[np.argmax(wrong)]]
            raise AssertionError(f"nucleus {gid}: semantic/instance class mismatch")
        for gid in _nuclei_under(self.instances, self.mitosis).tolist():
            if self.classes[gid] != MITOTIC_CELL:
                raise AssertionError(f"nucleus {gid}: mitosis supersedence violated")


# ---------------------------------------------------------------------------
# Stage 3: hierarchical per-pixel classification and nucleus voting
# ---------------------------------------------------------------------------


def _classify_pixels(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk hierarchy levels 1..4 at pixels whose cell logits are the
    columns of ``vals`` (rows in ``CELL_IDS`` order).

    Returns (labels, fired): labels is int16 with UNDEFINED where no level
    produced a positive winner; fired is (4, N) bool marking override hits.
    At each level the winning channel is the argmax (ties to the lowest
    class id); it overrides the running label only when positive.
    """
    n = vals.shape[1]
    labels = np.full(n, UNDEFINED, dtype=np.int16)
    fired = np.zeros((len(_LEVELS), n), dtype=bool)
    if n == 0:
        return labels, fired
    for lvl, (plane_rows, ids) in enumerate(_LEVELS):
        sub = vals[plane_rows]  # (k, N)
        win = np.argmax(sub, axis=0)  # first max -> lowest id
        winval = np.take_along_axis(sub, win[None, :], axis=0)[0]
        pos = winval > 0
        labels[pos] = ids[win[pos]]
        fired[lvl] = pos
    return labels, fired


def _vote_groups(
    vals: np.ndarray, slot: np.ndarray, m: int
) -> tuple[np.ndarray, list[NucleusDecision]]:
    """Classify the pixels (the columns of ``vals``), then take a majority
    vote per nucleus.

    Pixel ``i`` belongs to nucleus ``slot[i]`` of ``m``. Returns the voted
    int16 class id per nucleus (UNDEFINED where undefined wins a strict
    plurality; defined ties go to the lowest class id) and one decision
    record per nucleus with the vote counts and per-level override hits.
    """
    labels, fired = _classify_pixels(vals)
    width = N_CLASSES + 1  # column 0 = undefined, column c + 1 = class id c
    key = slot.astype(np.int64) * width + (labels.astype(np.int64) + 1)
    counts = np.bincount(key, minlength=m * width).reshape(m, width)
    defined = counts[:, 1:]  # every class id, ascending; ties go to the lowest
    winner = np.argmax(defined, axis=1).astype(np.int16)
    voted = np.where(counts[:, 0] > defined.max(axis=1), np.int16(UNDEFINED), winner)
    fired_per = np.stack([np.bincount(slot[f], minlength=m) for f in fired], axis=1)
    decisions = [
        NucleusDecision(
            rule="vote" if cls != UNDEFINED else "undefined",
            votes={c - 1: n for c, n in enumerate(row) if n},
            level_fired=tuple(hits),
        )
        for cls, row, hits in zip(voted.tolist(), counts.tolist(), fired_per.tolist())
    ]
    return voted, decisions


# ---------------------------------------------------------------------------
# Stage 4: fallback rules
# ---------------------------------------------------------------------------


def fallback_rules(
    nuclei: InstanceMap,
    classes: dict[int, Optional[int]],
    tissue: np.ndarray,
) -> tuple[dict[int, Optional[int]], dict[int, str]]:
    """Resolve undefined nuclei from tissue context.

    A nucleus with more than half its pixels on epithelial tissue becomes
    epithelial_cell_nucleus; one with more than half on stroma whose
    teacher type is fibroblast (teacher name `connective`) becomes
    fibroblast. Everything else stays undefined.
    """
    out = dict(classes)
    rules: dict[int, str] = {}
    undef = [g for g, c in classes.items() if c is None]
    if not undef:
        return out, rules
    rows, cols, slot, gids = nuclei.pixel_groups()
    tis = tissue[rows, cols]
    cnt_epi = np.bincount(slot[tis == EPITHELIAL_TISSUE], minlength=gids.size)
    cnt_str = np.bincount(slot[tis == STROMA], minlength=gids.size)
    for gid, i in zip(undef, np.searchsorted(gids, undef).tolist()):
        total = nuclei.attrs[gid].pixel_count
        if 2 * int(cnt_epi[i]) > total:
            out[gid] = EPITHELIAL_CELL_NUCLEUS
            rules[gid] = "fallback_epithelial"
        elif 2 * int(cnt_str[i]) > total and nuclei.attrs[gid].teacher_type == FIBROBLAST:
            out[gid] = FIBROBLAST
            rules[gid] = "fallback_fibroblast"
    return out, rules


# ---------------------------------------------------------------------------
# Stage 5: mitosis detection and supersedence
# ---------------------------------------------------------------------------


def mitosis_hulls(
    candidates: Sequence[tuple],
    he: np.ndarray,
    config: Optional[RunConfig] = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """The H&E-only part of mitosis detection: every candidate's hull rasters.

    Per candidate: clip a circular ROI at the tile border; reject when the
    ROI's median RGB sum is <= the carbon-dust bound; Otsu the ROI grays
    and keep the dark side; keep 8-connected blobs (holes filled) of at
    least the minimum area; rasterize each blob's convex hull. Yields
    ``(y0, x0, region)``: a bool mask over the hull's bounding box whose
    top-left frame pixel is ``(y0, x0)``. Reads neither the blur nor the
    tissue.
    """
    cfg = config or RunConfig()
    check_rgb_tile(he)
    h, w = he.shape[:2]
    r = cfg.mitosis_roi_radius_px
    for x, y, _ in candidates:
        y0 = max(int(np.ceil(y - r)), 0)
        y1 = min(int(np.floor(y + r)), h - 1)
        x0 = max(int(np.ceil(x - r)), 0)
        x1 = min(int(np.floor(x + r)), w - 1)
        if y0 > y1 or x0 > x1:
            continue
        gy = np.arange(y0, y1 + 1)[:, None]
        gx = np.arange(x0, x1 + 1)[None, :]
        circle = (gy - y) ** 2 + (gx - x) ** 2 <= float(r) * float(r)
        if not circle.any():
            continue
        roi = he[y0 : y1 + 1, x0 : x1 + 1]
        if np.median(roi.astype(np.int32).sum(axis=2)[circle]) <= cfg.carbon_rgb_sum_max:
            continue  # carbon dust
        gray = grayscale(roi)
        t = otsu_threshold(gray[circle])
        dark = circle & (gray <= t)
        for blob in contours(dark):
            if blob.area < cfg.mitosis_min_area_px:
                continue
            # hull in (x, y) order over the blob's filled pixels, rasterized
            # over its own bounding box, which lies inside the ROI box
            hull = convex_hull(blob.pixels[:, ::-1])
            left, top = hull.min(axis=0).tolist()
            right, bottom = hull.max(axis=0).tolist()
            region = rasterize_hull(hull - (left, top), (right - left + 1, bottom - top + 1))
            yield y0 + top, x0 + left, region


def detect_mitosis(
    candidates: Sequence[tuple],
    he: np.ndarray,
    tissue: np.ndarray,
    config: Optional[RunConfig] = None,
) -> RegionList:
    """Filter mitosis candidates into hull regions.

    Keeps the ``mitosis_hulls`` that overlap epithelial tissue by at least
    one pixel. Their union is labelled 8-connected without a full-frame
    raster (``label_pieces``); region ids follow raster-scan order.
    """
    kept = [
        (y0, x0, region)
        for y0, x0, region in mitosis_hulls(candidates, he, config)
        if (
            tissue[y0 : y0 + region.shape[0], x0 : x0 + region.shape[1]][region]
            == EPITHELIAL_TISSUE
        ).any()
    ]
    return label_pieces(kept, he.shape[:2])


def _nuclei_under(nuclei: InstanceMap, mitosis: RegionList | InstanceMap) -> np.ndarray:
    """The ids of the nuclei with a pixel under a mitosis region, ascending."""
    rows, cols, _, _ = mitosis.pixel_groups()
    under = nuclei.ids[rows, cols]
    return np.unique(under[under > 0])


def apply_mitosis(
    classes: dict[int, Optional[int]],
    nuclei: InstanceMap,
    mitosis: RegionList | InstanceMap,
) -> tuple[dict[int, Optional[int]], list[int]]:
    """Reassign every nucleus intersecting the mitosis regions to mitotic_cell."""
    hit_ids = _nuclei_under(nuclei, mitosis).tolist()
    out = dict(classes)
    for gid in hit_ids:
        out[gid] = MITOTIC_CELL
    return out, hit_ids


# ---------------------------------------------------------------------------
# Stage 6: full composition
# ---------------------------------------------------------------------------


def _reduced(bundle) -> FusionInputs:
    """The fusion inputs of a bundle: already reduced, or from its ``reduce()``."""
    return bundle if isinstance(bundle, FusionInputs) else bundle.reduce()


def aggregate(
    bundle: TeacherBundle | FusionInputs, config: Optional[RunConfig] = None
) -> AggregationResult:
    """Validate one bundle and run the whole pipeline on it.

    ``bundle`` may also be the ``FusionInputs`` of a validated bundle.
    """
    cfg = config or RunConfig()
    inputs = _reduced(bundle)
    return _fuse(inputs, grayscale(gaussian_smooth(inputs.he, cfg.blur_sigma)), cfg)


def _fuse(inputs: FusionInputs, gray: np.ndarray, cfg: RunConfig) -> AggregationResult:
    """All six stages, from the smoothed grayscale
    (``grayscale(gaussian_smooth(he, cfg.blur_sigma))``) of ``inputs.he``."""
    t = cfg.background_threshold
    glass = gray > (otsu_threshold(gray) if t is None else t)
    tissue = np.where(glass, np.uint8(BACKGROUND), inputs.tissue_pre)
    rows, cols, slot, gids = inputs.groups
    voted, decisions = _vote_groups(inputs.cell_vals, slot, gids.size)
    gid_list = gids.tolist()
    provenance = dict(zip(gid_list, decisions))
    classes: dict[int, Optional[int]] = {
        gid: None if cls == UNDEFINED else cls
        for gid, cls in zip(gid_list, voted.tolist())
    }

    classes, fb_rules = fallback_rules(inputs.nuclei, classes, tissue)
    for gid, rule in fb_rules.items():
        provenance[gid].rule = rule

    mitosis = detect_mitosis(inputs.mitosis_candidates, inputs.he, tissue, cfg)
    classes, mit_ids = apply_mitosis(classes, inputs.nuclei, mitosis)
    for gid in mit_ids:
        provenance[gid].rule = "mitosis"

    final = np.array(
        [UNDEFINED if classes[g] is None else classes[g] for g in gid_list],
        dtype=np.int16,
    )[slot]
    keep = final != UNDEFINED
    semantic = tissue  # nucleus classes paint over the tissue labels
    semantic[rows[keep], cols[keep]] = final[keep]

    return AggregationResult(
        semantic=semantic,
        instances=inputs.nuclei,
        classes=classes,
        mitosis=mitosis,
        provenance=provenance,
    )
