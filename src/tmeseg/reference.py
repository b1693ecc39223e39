"""Naive per-pixel reference of the aggregation pipeline.

Every rule is re-implemented here with plain loops and independent
algorithms: exhaustive rational Otsu, direct 2-d convolution, flood-fill
components, gift-wrapping hulls, crossing-number rasterization. The
module shares only the data containers with the optimized pipeline and
exists as its ground-truth oracle; output must match pixel for pixel.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Optional

import numpy as np

from .aggregate import TeacherBundle
from .config import RunConfig
from .taxonomy import default_taxonomy


# ---------------------------------------------------------------------------
# Image primitives
# ---------------------------------------------------------------------------


def _blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Direct 2-d Gaussian convolution (tap-by-tap accumulation)."""
    radius = math.ceil(3.0 * sigma)
    taps = [math.exp(-(i * i) / (2.0 * sigma * sigma)) for i in range(-radius, radius + 1)]
    norm = sum(taps)
    taps = [t / norm for t in taps]
    h, w = img.shape[:2]
    out = np.empty_like(img)
    for ch in range(3):
        padded = np.pad(img[:, :, ch].astype(np.float64), radius, mode="symmetric")
        acc = np.zeros((h, w), dtype=np.float64)
        for i in range(2 * radius + 1):
            for j in range(2 * radius + 1):
                acc += (taps[i] * taps[j]) * padded[i : i + h, j : j + w]
        out[:, :, ch] = np.clip(np.rint(acc), 0, 255).astype(np.uint8)
    return out


def _gray_rows(img: np.ndarray) -> list[list[int]]:
    """Rounded per-pixel mean of R, G, B (half-even rounding)."""
    h, w = img.shape[:2]
    r_l = img[:, :, 0].tolist()
    g_l = img[:, :, 1].tolist()
    b_l = img[:, :, 2].tolist()
    return [
        [int(round((r_l[y][x] + g_l[y][x] + b_l[y][x]) / 3)) for x in range(w)]
        for y in range(h)
    ]


def _otsu(values) -> int:
    """Exhaustive 256-threshold search with exact rational variances."""
    hist = [0] * 256
    for v in values:
        hist[v] += 1
    present = [v for v in range(256) if hist[v]]
    if not present:
        raise ValueError("no pixels")
    if len(present) == 1:
        return present[0]
    total = sum(hist)
    grand = sum(v * hist[v] for v in range(256))
    best_t = 0
    best = Fraction(-1)
    w0 = s0 = 0
    for t in range(256):
        w0 += hist[t]
        s0 += t * hist[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        bcv = Fraction((s0 * w1 - (grand - s0) * w0) ** 2, w0 * w1)
        if bcv > best:
            best, best_t = bcv, t
    return best_t


def _flood_components(pixels: set[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """8-connected components in raster-scan order via flood fill."""
    remaining = set(pixels)
    order = sorted(remaining)
    comps = []
    for seed in order:
        if seed not in remaining:
            continue
        stack = [seed]
        remaining.discard(seed)
        comp = []
        while stack:
            y, x = stack.pop()
            comp.append((y, x))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    q = (y + dy, x + dx)
                    if q in remaining:
                        remaining.discard(q)
                        stack.append(q)
        comps.append(comp)
    return comps


def _fill_holes(comp: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Add enclosed background (4-connected flood from outside the bbox)."""
    cs = set(comp)
    ys = [p[0] for p in comp]
    xs = [p[1] for p in comp]
    y0, y1 = min(ys) - 1, max(ys) + 1
    x0, x1 = min(xs) - 1, max(xs) + 1
    outside = set()
    stack = [(y0, x0)]
    while stack:
        y, x = stack.pop()
        if not (y0 <= y <= y1 and x0 <= x <= x1):
            continue
        if (y, x) in outside or (y, x) in cs:
            continue
        outside.add((y, x))
        stack.extend([(y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)])
    filled = set(cs)
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if (y, x) not in outside:
                filled.add((y, x))
    return filled


def _jarvis_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Gift-wrapping convex hull, counter-clockwise in (x, y)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def dist2(a, b):
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

    start = min(pts, key=lambda p: (p[1], p[0]))  # lowest y, then lowest x
    hull = [start]
    current = start
    while True:
        candidate = None
        for p in pts:
            if p == current:
                continue
            if candidate is None:
                candidate = p
                continue
            c = cross(current, candidate, p)
            if c < 0 or (c == 0 and dist2(current, p) > dist2(current, candidate)):
                candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
        if len(hull) > len(pts):
            raise RuntimeError("hull walk failed to terminate")
    return hull


def _on_segment(px, py, a, b) -> bool:
    cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
    if cross != 0:
        return False
    dot = (b[0] - a[0]) * (px - a[0]) + (b[1] - a[1]) * (py - a[1])
    return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2


def _point_in_hull(px: int, py: int, hull: list[tuple[int, int]]) -> bool:
    """Exact integer point-in-polygon: boundary, then even-odd crossings."""
    if len(hull) == 1:
        return (px, py) == hull[0]
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if len(hull) == 2:
        edges = edges[:1]
    for a, b in edges:
        if _on_segment(px, py, a, b):
            return True
    if len(hull) == 2:
        return False
    crossings = 0
    for (x0, y0), (x1, y1) in edges:
        if (y0 > py) != (y1 > py):
            lhs = (px - x0) * (y1 - y0)
            rhs = (x1 - x0) * (py - y0)
            if (lhs < rhs) if (y1 - y0) > 0 else (lhs > rhs):
                crossings += 1
    return crossings % 2 == 1


# ---------------------------------------------------------------------------
# Pipeline stages, per pixel
# ---------------------------------------------------------------------------


def _tissue_rows(
    bundle: TeacherBundle, gray: list[list[int]], threshold: int
) -> list[list[int]]:
    tax = default_taxonomy()
    bg = tax.resolve("background")
    stro = tax.resolve("stroma")
    sm_id = tax.resolve("smooth_muscle")
    epi_id = tax.resolve("epithelial_tissue")
    rbc_id = tax.resolve("red_blood_cell")
    sm = bundle.tissue_logits.plane(sm_id).tolist()
    epi = bundle.tissue_logits.plane(epi_id).tolist()
    rbc = bundle.tissue_logits.plane(rbc_id).tolist()
    h, w = bundle.he.shape[:2]
    out = []
    for y in range(h):
        row = []
        g_r, sm_r, epi_r, rbc_r = gray[y], sm[y], epi[y], rbc[y]
        for x in range(w):
            if g_r[x] > threshold:
                row.append(bg)
            elif rbc_r[x] > 0:
                row.append(rbc_id)
            elif sm_r[x] > 0 or epi_r[x] > 0:
                row.append(epi_id if epi_r[x] > sm_r[x] else sm_id)
            else:
                row.append(stro)
        out.append(row)
    return out


def _classify_pixel(vals: list[float], level_slots: list[list[tuple[int, int]]]):
    label = None
    for slots in level_slots:
        best_slot, best_v = None, None
        for slot, cid in slots:
            v = vals[slot]
            if best_v is None or v > best_v:
                best_slot, best_v = (slot, cid), v
        if best_v > 0:
            label = best_slot[1]
    return label


def _vote(tally: dict) -> Optional[int]:
    defined = {c: n for c, n in tally.items() if c is not None}
    if not defined:
        return None
    best = max(defined.values())
    if tally.get(None, 0) > best:
        return None
    return min(c for c, n in defined.items() if n == best)


def _detect_mitosis(bundle: TeacherBundle, tissue: list[list[int]]) -> set[tuple[int, int]]:
    """The published rule: ROI radius 30 px, carbon dust at median RGB sum
    <= 40, dark blobs of >= 3 px."""
    epi = default_taxonomy().resolve("epithelial_tissue")
    h, w = bundle.he.shape[:2]
    he = bundle.he
    gray = _gray_rows(he)
    sums = [
        [int(he[y, x, 0]) + int(he[y, x, 1]) + int(he[y, x, 2]) for x in range(w)]
        for y in range(h)
    ]
    r = 30
    union: set[tuple[int, int]] = set()
    for x, y, _score in bundle.mitosis_candidates:
        y0 = max(math.ceil(y - r), 0)
        y1 = min(math.floor(y + r), h - 1)
        x0 = max(math.ceil(x - r), 0)
        x1 = min(math.floor(x + r), w - 1)
        circle = []
        for py in range(y0, y1 + 1):
            for px in range(x0, x1 + 1):
                if (py - y) ** 2 + (px - x) ** 2 <= float(r) * float(r):
                    circle.append((py, px))
        if not circle:
            continue
        if statistics.median(sums[py][px] for py, px in circle) <= 40:
            continue
        t = _otsu(gray[py][px] for py, px in circle)
        dark = {(py, px) for py, px in circle if gray[py][px] <= t}
        for comp in _flood_components(dark):
            filled = _fill_holes(comp)
            if len(filled) < 3:
                continue
            hull = _jarvis_hull([(px, py) for py, px in filled])
            hx0 = min(p[0] for p in hull)
            hx1 = max(p[0] for p in hull)
            hy0 = min(p[1] for p in hull)
            hy1 = max(p[1] for p in hull)
            region = [
                (py, px)
                for py in range(max(hy0, 0), min(hy1, h - 1) + 1)
                for px in range(max(hx0, 0), min(hx1, w - 1) + 1)
                if _point_in_hull(px, py, hull)
            ]
            if any(tissue[py][px] == epi for py, px in region):
                union.update(region)
    return union


# ---------------------------------------------------------------------------
# Full reference pipeline
# ---------------------------------------------------------------------------


def reference_aggregate(
    bundle: TeacherBundle, config: Optional[RunConfig] = None
) -> dict:
    """Run the per-pixel reference; returns semantic raster, per-nucleus
    classes, and the mitosis mask.

    Class ids are resolved here from their names, and the published blur
    sigma and mitosis bounds are written out here, not taken from the
    pipeline's constants, so a wrong constant shows up as a mismatch."""
    cfg = config or RunConfig()
    tax = default_taxonomy()
    h, w = bundle.he.shape[:2]

    gray = _gray_rows(_blur(bundle.he, 2.0))
    threshold = cfg.background_threshold
    if threshold is None:
        threshold = _otsu(v for row in gray for v in row)
    tissue = _tissue_rows(bundle, gray, threshold)

    # nucleus pixel lists in one raster pass
    pixels: dict[int, list[tuple[int, int]]] = {}
    id_rows = bundle.nuclei.ids.tolist()
    for y in range(h):
        row = id_rows[y]
        for x in range(w):
            gid = row[x]
            if gid:
                pixels.setdefault(gid, []).append((y, x))

    stack = bundle.cell_logits
    slot_of = {c: i for i, c in enumerate(stack.class_ids)}
    level_slots = [
        [(slot_of[c], c) for c in sorted(level)] for level in tax.levels
    ]

    classes: dict[int, Optional[int]] = {}
    for gid, pts in pixels.items():
        rows = [p[0] for p in pts]
        cols = [p[1] for p in pts]
        vals = stack.planes[:, rows, cols].T.tolist()
        tally: dict = {}
        for v in vals:
            lab = _classify_pixel(v, level_slots)
            tally[lab] = tally.get(lab, 0) + 1
        classes[gid] = _vote(tally)

    # fallbacks
    epi = tax.resolve("epithelial_tissue")
    stro = tax.resolve("stroma")
    epi_n = tax.resolve("epithelial_cell_nucleus")
    fib = tax.resolve("fibroblast")
    for gid, pts in pixels.items():
        if classes[gid] is not None:
            continue
        n_epi = sum(1 for y, x in pts if tissue[y][x] == epi)
        n_str = sum(1 for y, x in pts if tissue[y][x] == stro)
        if 2 * n_epi > len(pts):
            classes[gid] = epi_n
        elif 2 * n_str > len(pts) and bundle.nuclei.attrs[gid].teacher_type == fib:
            classes[gid] = fib

    mitosis = _detect_mitosis(bundle, tissue)

    mit = tax.resolve("mitotic_cell")
    for gid, pts in pixels.items():
        if any((y, x) in mitosis for y, x in pts):
            classes[gid] = mit

    semantic = np.array(tissue, dtype=np.uint8)
    for gid, pts in pixels.items():
        cls = classes.get(gid)
        if cls is None:
            continue
        for y, x in pts:
            semantic[y, x] = cls

    mask = np.zeros((h, w), dtype=bool)
    for y, x in mitosis:
        mask[y, x] = True

    for gid in bundle.nuclei.instance_ids:
        classes.setdefault(gid, None)
    return {"semantic": semantic, "classes": classes, "mitosis_mask": mask}
