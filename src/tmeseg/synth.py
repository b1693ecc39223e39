"""Synthetic scene construction: deterministic teacher bundles for tests,
benchmarks, and the command-line ``synth`` command.

A scene is declarative: geometric primitives place tissue ink, teacher
logits, nucleus instances, and mitosis candidates on a glass slide.
``build_bundle`` renders it once; the pipeline and the per-pixel
reference (``reference.reference_aggregate``) then consume the identical
bundle, so the reference's result is its ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .aggregate import CELL_CHANNELS, CELL_IDS, TISSUE_CHANNELS, TISSUE_IDS, TeacherBundle
from .raster import InstanceMap, LogitStack
from .taxonomy import FIBROBLAST, VOCABULARY

GLASS = 235
TISSUE_INK = 170
NUCLEUS_INK = 90


# ---------------------------------------------------------------------------
# Geometry primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    cy: float
    cx: float
    r: float

    def pixels(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        y0 = max(int(math.floor(self.cy - self.r)), 0)
        y1 = min(int(math.ceil(self.cy + self.r)), h - 1)
        x0 = max(int(math.floor(self.cx - self.r)), 0)
        x1 = min(int(math.ceil(self.cx + self.r)), w - 1)
        if y0 > y1 or x0 > x1:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        gy, gx = np.meshgrid(
            np.arange(y0, y1 + 1), np.arange(x0, x1 + 1), indexing="ij"
        )
        hit = (gy - self.cy) ** 2 + (gx - self.cx) ** 2 <= self.r * self.r
        return gy[hit], gx[hit]


@dataclass(frozen=True)
class Ellipse:
    cy: float
    cx: float
    ry: float
    rx: float

    def pixels(self, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        y0 = max(int(math.floor(self.cy - self.ry)), 0)
        y1 = min(int(math.ceil(self.cy + self.ry)), h - 1)
        x0 = max(int(math.floor(self.cx - self.rx)), 0)
        x1 = min(int(math.ceil(self.cx + self.rx)), w - 1)
        if y0 > y1 or x0 > x1:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        gy, gx = np.meshgrid(
            np.arange(y0, y1 + 1), np.arange(x0, x1 + 1), indexing="ij"
        )
        hit = ((gy - self.cy) / self.ry) ** 2 + ((gx - self.cx) / self.rx) ** 2 <= 1.0
        return gy[hit], gx[hit]


Shape = Union[Disc, Ellipse]


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
    mpp: float = 0.25
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
        if rows.size == 0:
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
    and bare positions.
    """
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
        if kind == "blob_epi":
            cy = ecy + float(rng.uniform(-5, 5))
            cx = ecx + float(rng.uniform(-5, 5))
            candidates.append(
                CandidateSpec(
                    x=min(max(cx, 0.0), w - 1.0),
                    y=min(max(cy, 0.0), h - 1.0),
                    score=score,
                    draw="blob",
                    radius=float(rng.uniform(2.5, 5.0)),
                    intensity=20,
                )
            )
        elif kind == "blob_far":
            cy, cx = point(2)
            candidates.append(
                CandidateSpec(
                    x=cx,
                    y=cy,
                    score=score,
                    draw="blob",
                    radius=float(rng.uniform(2.5, 5.0)),
                    intensity=25,
                )
            )
        elif kind == "dust":
            cy, cx = point(4)
            candidates.append(
                CandidateSpec(
                    x=cx,
                    y=cy,
                    score=score,
                    draw="dust",
                    radius=float(min(h, w) / 3),
                    intensity=12,
                )
            )
        else:
            cy, cx = point(1)
            candidates.append(CandidateSpec(x=cx, y=cy, score=score))

    return SceneSpec(
        height=h,
        width=w,
        tissue=tuple(tissue),
        nuclei=tuple(nuclei),
        candidates=tuple(candidates),
        noise_seed=seed + 10_000,
    )


def throughput_bundle(size: int = 4096, seed: int = 0) -> TeacherBundle:
    """Large dense bundle for timing runs, built vectorized.

    Horizontal bands alternate epithelium / stroma / smooth muscle /
    stroma; a grid of ~5000 classed nuclei (with some undefined ones
    carrying fibroblast teacher types) and ~150 blob candidates fills
    the interior.
    """
    rng = np.random.default_rng(seed)
    h = w = int(size)
    border = 32

    he = np.full((h, w, 3), GLASS, dtype=np.uint8)
    interior = np.zeros((h, w), dtype=bool)
    interior[border : h - border, border : w - border] = True
    he[interior] = TISSUE_INK

    yy = np.arange(h)[:, None]
    band = (yy // 512) % 4  # 0 epi, 1 stroma, 2 smooth muscle, 3 stroma
    epi_region = interior & (band == 0)
    sm_region = interior & (band == 2)

    def plane(region: np.ndarray, value: float) -> np.ndarray:
        out = np.full((h, w), -2.0, dtype=np.float32)
        out[region] = np.float32(value)
        return out

    tissue_planes = {
        "smooth_muscle": plane(sm_region, 1.5),
        "epithelial_tissue": plane(epi_region, 2.0),
        "red_blood_cell": np.full((h, w), -2.0, dtype=np.float32),
    }

    # nucleus grid: radius-3 discs, then classes by id
    spacing = 56
    centers = np.arange(border + spacing // 2, h - border - 4, spacing)
    cyv, cxv = np.meshgrid(centers, centers, indexing="ij")
    cyv, cxv = cyv.ravel(), cxv.ravel()
    keep = min(cyv.size, 5000)
    cyv, cxv = cyv[:keep], cxv[:keep]
    dy, dx = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij")
    disc = (dy**2 + dx**2) <= 9
    dy, dx = dy[disc], dx[disc]
    flat = (cyv[:, None] + dy[None, :]) * w + (cxv[:, None] + dx[None, :])
    gids = np.arange(1, keep + 1, dtype=np.int32)
    ids = np.zeros(h * w, dtype=np.int32)
    ids[flat] = np.broadcast_to(gids[:, None], flat.shape)
    ids = ids.reshape(h, w)
    he.reshape(-1, 3)[flat.ravel()] = NUCLEUS_INK

    # class per nucleus: cycle the cell channels, ~10% undefined
    slot = rng.integers(0, len(CELL_CHANNELS), size=keep)
    undefined = rng.random(keep) < 0.10
    cell_planes = {
        name: np.full((h, w), -2.0, dtype=np.float32) for name in CELL_CHANNELS
    }
    lut = np.full(keep + 1, -1, dtype=np.int64)
    lut[1:] = np.where(undefined, -1, slot)
    owner = lut[ids]
    for k, name in enumerate(CELL_CHANNELS):
        cell_planes[name][owner == k] = 3.0
    types = {int(g): FIBROBLAST for g, u in zip(gids, undefined) if u}

    # blob candidates on the epithelial bands
    step = 200
    grid = np.arange(border + 64, w - border - 64, step)
    cands = []
    for cy in grid:
        if band[cy, 0] != 0:
            continue
        for cx in grid:
            cands.append((float(cx), float(cy), 0.9))
    cands = cands[:160]
    bdy, bdx = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij")
    bdisc = (bdy**2 + bdx**2) <= 9
    bdy, bdx = bdy[bdisc], bdx[bdisc]
    for cx, cy, _ in cands:
        he[int(cy) + bdy, int(cx) + bdx] = 20

    return TeacherBundle(
        he=he,
        tissue_logits=LogitStack(
            TISSUE_IDS, np.stack([tissue_planes[n] for n in TISSUE_CHANNELS])
        ),
        cell_logits=LogitStack(CELL_IDS, np.stack([cell_planes[n] for n in CELL_CHANNELS])),
        nuclei=InstanceMap.from_ids(ids, types),
        mitosis_candidates=tuple(cands),
        mpp=0.25,
    )
