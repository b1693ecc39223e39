"""Synthetic scene construction: deterministic teacher bundles for tests,
benchmarks, and the command-line ``synth`` command.

A scene is declarative: discs, ellipses and rectangles place tissue ink,
teacher logits, nucleus instances, and mitosis candidates on a glass
slide. ``build_bundle`` is the one renderer, of ``random_scene`` and of
the benchmark's ``throughput_bundle`` alike; the pipeline and the per-pixel
reference (``reference.reference_aggregate``) then consume the identical
bundle, so the reference's result is its ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .aggregate import CELL_CHANNELS, CELL_IDS, TISSUE_CHANNELS, TISSUE_IDS, TeacherBundle
from .config import DEFAULT_MPP
from .raster import InstanceMap, LogitStack
from .taxonomy import VOCABULARY

GLASS = 235
TISSUE_INK = 170
NUCLEUS_INK = 90


# ---------------------------------------------------------------------------
# Geometry primitives
# ---------------------------------------------------------------------------


def _grid(cy: float, cx: float, ry: float, rx: float, h: int, w: int) -> tuple[np.ndarray, ...]:
    """Row and column grids of the box ``cy +- ry, cx +- rx``, outward to
    whole pixels, clipped to an ``h`` x ``w`` frame; empty when outside."""
    y0 = max(int(math.floor(cy - ry)), 0)
    y1 = min(int(math.ceil(cy + ry)), h - 1)
    x0 = max(int(math.floor(cx - rx)), 0)
    x1 = min(int(math.ceil(cx + rx)), w - 1)
    return np.meshgrid(np.arange(y0, y1 + 1), np.arange(x0, x1 + 1), indexing="ij")


@dataclass(frozen=True)
class Disc:
    cy: float
    cx: float
    r: float

    def pixels(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        gy, gx = _grid(self.cy, self.cx, self.r, self.r, h, w)
        hit = (gy - self.cy) ** 2 + (gx - self.cx) ** 2 <= self.r * self.r
        return gy[hit], gx[hit]


@dataclass(frozen=True)
class Ellipse:
    cy: float
    cx: float
    ry: float
    rx: float

    def pixels(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        gy, gx = _grid(self.cy, self.cx, self.ry, self.rx, h, w)
        hit = ((gy - self.cy) / self.ry) ** 2 + ((gx - self.cx) / self.rx) ** 2 <= 1.0
        return gy[hit], gx[hit]


@dataclass(frozen=True)
class Rect:
    """Rows ``y0 .. y1 - 1`` by columns ``x0 .. x1 - 1``, clipped to the frame."""

    y0: int
    x0: int
    y1: int
    x1: int

    def pixels(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable ``rows[:, None]`` and ``cols[None, :]``: no meshgrid."""
        rows = np.arange(max(self.y0, 0), min(self.y1, h))
        cols = np.arange(max(self.x0, 0), min(self.x1, w))
        return rows[:, None], cols[None, :]


Shape = Union[Disc, Ellipse, Rect]


# ---------------------------------------------------------------------------
# Scene elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogitPatch:
    """Paint one channel's logit over a region (set, not add)."""

    channel: str
    shape: Shape
    logit: float


@dataclass(frozen=True)
class TissuePatch:
    """Stained region: ink on the H&E plus an optional tissue logit."""

    shape: Shape
    class_name: Optional[str] = None  # None = ink only (reads as stroma)
    logit: float = 2.0
    intensity: int = TISSUE_INK


@dataclass(frozen=True)
class NucleusSpec:
    """One nucleus instance: dark ink, an id, and teacher cell logits."""

    shape: Shape
    class_name: Optional[str] = None  # None = no positive logit (undefined)
    logit: float = 3.0
    teacher_type: Optional[str] = None
    intensity: int = NUCLEUS_INK
    extras: tuple[LogitPatch, ...] = ()


@dataclass(frozen=True)
class CandidateSpec:
    """Mitosis candidate; optionally draws pixels at its location.

    ``draw`` is None (nothing), "blob" (a small dark disc that survives
    the carbon-dust check), or "dust" (a wide near-black disc whose ROI
    median RGB sum falls at or below the carbon bound).
    """

    x: float
    y: float
    score: float = 0.9
    draw: Optional[str] = None
    radius: float = 4.0
    intensity: int = 20


@dataclass(frozen=True)
class SceneSpec:
    height: int
    width: int
    glass: int = GLASS
    base_logit: float = -2.0
    mpp: float = DEFAULT_MPP
    tissue: tuple[TissuePatch, ...] = ()
    nuclei: tuple[NucleusSpec, ...] = ()
    candidates: tuple[CandidateSpec, ...] = ()
    noise_seed: Optional[int] = None
    noise_logit: float = 0.25
    noise_he: int = 4


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def build_bundle(scene: SceneSpec) -> TeacherBundle:
    """Render a scene into a teacher bundle.

    Draw order: tissue ink, nucleus ink (overlaps between nuclei raise),
    noise (when seeded), then candidate blobs/dust so their pixel values
    are exact. Logit patches set values; later patches win overlaps.
    """
    h, w = scene.height, scene.width
    he = np.full((h, w, 3), scene.glass, dtype=np.uint8)
    tissue_planes = {
        name: np.full((h, w), scene.base_logit, dtype=np.float32)
        for name in TISSUE_CHANNELS
    }
    cell_planes = {
        name: np.full((h, w), scene.base_logit, dtype=np.float32)
        for name in CELL_CHANNELS
    }

    def paint(planes: dict, channel: str, shape: Shape, logit: float) -> None:
        canon = VOCABULARY.name_of(VOCABULARY.resolve(channel))
        if canon not in planes:
            raise ValueError(f"{channel!r} is not a channel of this stack")
        rows, cols = shape.pixels(h, w)
        planes[canon][rows, cols] = np.float32(logit)

    for patch in scene.tissue:
        rows, cols = patch.shape.pixels(h, w)
        he[rows, cols] = patch.intensity
        if patch.class_name is not None:
            paint(tissue_planes, patch.class_name, patch.shape, patch.logit)

    ids = np.zeros((h, w), dtype=np.int32)
    types: dict[int, Optional[int]] = {}
    for gid, spec in enumerate(scene.nuclei, start=1):
        rows, cols = spec.shape.pixels(h, w)
        if np.broadcast(rows, cols).size == 0:
            raise ValueError(f"nucleus {gid} has no pixels inside the tile")
        if (ids[rows, cols] != 0).any():
            raise ValueError(f"nucleus {gid} overlaps an earlier nucleus")
        ids[rows, cols] = gid
        he[rows, cols] = spec.intensity
        if spec.class_name is not None:
            paint(cell_planes, spec.class_name, spec.shape, spec.logit)
        for extra in spec.extras:
            paint(cell_planes, extra.channel, extra.shape, extra.logit)
        if spec.teacher_type is not None:
            types[gid] = VOCABULARY.resolve(spec.teacher_type)

    if scene.noise_seed is not None:
        rng = np.random.default_rng(scene.noise_seed)
        bump = rng.integers(
            -scene.noise_he, scene.noise_he + 1, size=he.shape, dtype=np.int16
        )
        he = np.clip(he.astype(np.int16) + bump, 0, 255).astype(np.uint8)
        for planes in (tissue_planes, cell_planes):
            for name in planes:
                planes[name] = planes[name] + rng.uniform(
                    -scene.noise_logit, scene.noise_logit, size=(h, w)
                ).astype(np.float32)

    for cand in scene.candidates:
        if cand.draw is not None:
            if cand.draw not in ("blob", "dust"):
                raise ValueError(f"unknown candidate drawing {cand.draw!r}")
            rows, cols = Disc(cand.y, cand.x, cand.radius).pixels(h, w)
            he[rows, cols] = cand.intensity

    return TeacherBundle(
        he=he,
        tissue_logits=LogitStack(
            TISSUE_IDS, np.stack([tissue_planes[n] for n in TISSUE_CHANNELS])
        ),
        cell_logits=LogitStack(CELL_IDS, np.stack([cell_planes[n] for n in CELL_CHANNELS])),
        nuclei=InstanceMap.from_ids(ids, types),
        mitosis_candidates=tuple((c.x, c.y, c.score) for c in scene.candidates),
        mpp=scene.mpp,
    )


# ---------------------------------------------------------------------------
# Randomized scenes
# ---------------------------------------------------------------------------

_NUCLEUS_CHOICES: tuple[Optional[str], ...] = (None,) + CELL_CHANNELS


def random_scene(
    seed: int,
    height: int = 96,
    width: int = 96,
    max_nuclei: int = 20,
    max_candidates: int = 5,
) -> SceneSpec:
    """Seeded scene mixing every pipeline branch.

    Tissue regions contest, nuclei span all hierarchy levels plus
    undefined (some with fibroblast teacher types on stroma), and
    candidates cover accepted blobs, off-epithelium blobs, carbon dust,
    and bare positions. The frame is at least 30 x 30: the epithelial
    ellipse's semi-axes are drawn from ``[10, side / 3]``.
    """
    for name, value, least in [
        ("height", height, 30), ("width", width, 30),
        ("max_nuclei", max_nuclei, 0), ("max_candidates", max_candidates, 0),
    ]:
        if value < least:
            raise ValueError(f"random_scene {name} must be at least {least}, got {value}")
    rng = np.random.default_rng(seed)
    h, w = height, width

    def point(margin: float) -> tuple[float, float]:
        return (
            float(rng.uniform(margin, h - margin)),
            float(rng.uniform(margin, w - margin)),
        )

    tissue = []
    ecy, ecx = point(12)
    tissue.append(
        TissuePatch(
            Ellipse(
                ecy,
                ecx,
                float(rng.uniform(10, h / 3)),
                float(rng.uniform(10, w / 3)),
            ),
            "epithelial_tissue",
            logit=float(rng.uniform(0.5, 3.0)),
        )
    )
    scy, scx = point(8)
    tissue.append(
        TissuePatch(
            Disc(scy, scx, float(rng.uniform(6, 14))),
            "smooth_muscle",
            logit=float(rng.uniform(0.5, 3.0)),
        )
    )
    if rng.random() < 0.5:
        bcy, bcx = point(5)
        tissue.append(
            TissuePatch(
                Disc(bcy, bcx, float(rng.uniform(2, 5))),
                "red_blood_cell",
                logit=1.5,
            )
        )
    if rng.random() < 0.4:
        icy, icx = point(6)
        tissue.append(TissuePatch(Disc(icy, icx, float(rng.uniform(4, 9))), None))

    occupancy = np.zeros((h, w), dtype=bool)
    nuclei = []
    target = int(rng.integers(0, max_nuclei + 1))
    attempts = 0
    while len(nuclei) < target and attempts < 40 * max(target, 1):
        attempts += 1
        r = float(rng.uniform(1.2, 4.0))
        cy, cx = point(max(3.0, r + 1.0))
        shape = Disc(cy, cx, r)
        rows, cols = shape.pixels(h, w)
        if rows.size == 0 or occupancy[rows, cols].any():
            continue
        occupancy[rows, cols] = True
        cls = _NUCLEUS_CHOICES[int(rng.integers(0, len(_NUCLEUS_CHOICES)))]
        extras: tuple[LogitPatch, ...] = ()
        if cls is not None and rng.random() < 0.3:
            other = CELL_CHANNELS[int(rng.integers(0, len(CELL_CHANNELS)))]
            sub = Disc(
                cy + float(rng.uniform(-r / 2, r / 2)),
                cx + float(rng.uniform(-r / 2, r / 2)),
                r * 0.6,
            )
            extras = (LogitPatch(other, sub, float(rng.uniform(0.5, 4.0))),)
        teacher = None
        if cls is None and rng.random() < 0.5:
            teacher = "connective" if rng.random() < 0.7 else "lymphocyte"
        nuclei.append(
            NucleusSpec(
                shape,
                class_name=cls,
                logit=float(rng.uniform(0.5, 4.0)),
                teacher_type=teacher,
                extras=extras,
            )
        )

    candidates = []
    kinds = ("blob_epi", "blob_far", "dust", "bare")
    for _ in range(int(rng.integers(0, max_candidates + 1))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        score = float(rng.uniform(0.05, 1.0))
        if kind == "blob_epi":  # near the epithelium's centre, clamped to the frame
            cy = min(max(ecy + float(rng.uniform(-5, 5)), 0.0), h - 1.0)
            cx = min(max(ecx + float(rng.uniform(-5, 5)), 0.0), w - 1.0)
        else:
            cy, cx = point({"blob_far": 2, "dust": 4, "bare": 1}[kind])
        if kind == "dust":
            draw = {"draw": "dust", "radius": float(min(h, w) / 3), "intensity": 12}
        elif kind == "bare":
            draw = {}
        else:
            radius = float(rng.uniform(2.5, 5.0))
            draw = {"draw": "blob", "radius": radius, "intensity": 20 if kind == "blob_epi" else 25}
        candidates.append(CandidateSpec(x=cx, y=cy, score=score, **draw))

    return SceneSpec(
        height=h,
        width=w,
        tissue=tuple(tissue),
        nuclei=tuple(nuclei),
        candidates=tuple(candidates),
        noise_seed=seed + 10_000,
    )


def throughput_bundle(size: int = 4096, seed: int = 0) -> TeacherBundle:
    """Large dense square bundle for timing runs: a ``SceneSpec`` drawn by
    ``build_bundle``.

    Inside a 32 px glass border, every 2048 rows hold a 512-row epithelial
    band and, 1024 rows lower, a 512-row smooth-muscle band, stroma between.
    A 56 px grid of up to 5000 radius-3 nuclei (cycling the cell channels,
    ~10% undefined with fibroblast teacher types) and up to 160 blob
    candidates on the epithelial bands fill the interior.
    """
    rng = np.random.default_rng(seed)
    h = w = int(size)
    lo, hi = 32, h - 32  # the interior, on both axes
    tissue = [TissuePatch(Rect(lo, lo, hi, hi))]
    for y in range(0, h, 2048):
        for y0, name, logit in ((y, "epithelial_tissue", 2.0), (y + 1024, "smooth_muscle", 1.5)):
            tissue.append(TissuePatch(Rect(max(y0, lo), lo, min(y0 + 512, hi), hi), name, logit))

    centers = range(lo + 28, hi - 4, 56)
    cells = [(cy, cx) for cy in centers for cx in centers][:5000]
    slot = rng.integers(0, len(CELL_CHANNELS), len(cells)).tolist()
    undefined = (rng.random(len(cells)) < 0.10).tolist()
    nuclei = [
        NucleusSpec(Disc(cy, cx, 3), teacher_type="fibroblast") if u
        else NucleusSpec(Disc(cy, cx, 3), CELL_CHANNELS[k])
        for (cy, cx), k, u in zip(cells, slot, undefined)
    ]
    grid = range(lo + 64, hi - 64, 200)
    blobs = [
        CandidateSpec(cx, cy, draw="blob", radius=3)
        for cy in grid if (cy // 512) % 4 == 0 for cx in grid
    ][:160]
    return build_bundle(
        SceneSpec(h, w, tissue=tuple(tissue), nuclei=tuple(nuclei), candidates=tuple(blobs))
    )
