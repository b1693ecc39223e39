"""Brute-force oracle implementations used only by the tests.

Each function here recomputes a quantity by the most naive defensible
route (exhaustive search, exact rational arithmetic, full enumeration,
quadratic scans) so the package code can be checked against an
independently derived answer.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

import tmeseg.aggregate
from tmeseg.config import CARBON_RGB_SUM_MAX, MITOSIS_MIN_AREA_PX
from tmeseg.raster import (
    InstanceMap,
    as_bitmask,
    check_rgb_tile,
    grayscale,
    otsu_threshold,
)
from tmeseg.taxonomy import EPITHELIAL_TISSUE


def exhaustive_otsu(values: Sequence[int]) -> int:
    """``exhaustive_otsu_hist`` of the values' 256-bin histogram."""
    hist = [0] * 256
    for v in values:
        hist[int(v)] += 1
    return exhaustive_otsu_hist(hist)


def exhaustive_otsu_hist(hist: Sequence[int]) -> int:
    """Exact between-class-variance maximizer over all 256 thresholds, for
    value counts ``hist`` of any size.

    Rational arithmetic throughout; smallest maximizing threshold wins;
    a single distinct value returns that value.
    """
    hist = [int(c) for c in hist]
    present = [v for v in range(256) if hist[v]]
    if len(present) == 1:
        return present[0]
    total = sum(hist)
    best_t, best_score = 0, Fraction(-1)
    for t in range(256):
        w0 = sum(hist[: t + 1])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        mu0 = Fraction(sum(v * hist[v] for v in range(t + 1)), w0)
        mu1 = Fraction(sum(v * hist[v] for v in range(t + 1, 256)), w1)
        score = Fraction(w0 * w1, total * total) * (mu0 - mu1) ** 2
        if score > best_score:
            best_t, best_score = t, score
    return best_t


def union_find_components(mask: np.ndarray, connectivity: int = 8) -> np.ndarray:
    """Connected-component labels via union-find, first-seen id order."""
    h, w = mask.shape
    parent: dict[int, int] = {}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    if connectivity == 8:
        offsets = ((-1, -1), (-1, 0), (-1, 1), (0, -1))
    elif connectivity == 4:
        offsets = ((-1, 0), (0, -1))
    else:
        raise ValueError("connectivity must be 4 or 8")

    for y in range(h):
        for x in range(w):
            if not mask[y, x]:
                continue
            key = y * w + x
            parent[key] = key
            for dy, dx in offsets:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and mask[ny, nx]:
                    union(ny * w + nx, key)

    labels = np.zeros((h, w), dtype=np.int32)
    next_id = 1
    roots: dict[int, int] = {}
    for y in range(h):
        for x in range(w):
            if mask[y, x]:
                root = find(y * w + x)
                if root not in roots:
                    roots[root] = next_id
                    next_id += 1
                labels[y, x] = roots[root]
    return labels


# Convex hulls as polygons, rasterized by an edge test over a box: the
# reference for ``raster.blob_hulls``, which takes each hull's row
# intervals from two integer envelopes
def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull via monotone chain; vertices counter-clockwise.

    ``points`` is (N, 2) of (x, y). Degenerate inputs give a single point
    or a 2-vertex segment. Counter-clockwise is in the mathematical (x, y)
    plane, i.e. positive shoelace area.
    """
    pts = np.asarray(points, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a non-empty (N, 2) array")
    uniq = np.unique(pts, axis=0)  # sorts lexicographically by (x, y)
    if uniq.shape[0] == 1:
        return uniq
    pl = [tuple(p) for p in uniq.tolist()]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pl:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pl):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # collinear points pop down to the two extremes
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.int64)


def rasterize_hull(hull: np.ndarray, extent: tuple[int, int]) -> np.ndarray:
    """Fill pixels whose integer centers lie inside or on the hull.

    ``extent`` is (width, height); the mask is returned as (H, W) bool.
    Handles point and segment degeneracies exactly (integer arithmetic).
    """
    width, height = extent
    mask = np.zeros((height, width), dtype=bool)
    hull = np.asarray(hull, dtype=np.int64)
    xs, ys = hull[:, 0], hull[:, 1]
    x0 = max(int(xs.min()), 0)
    x1 = min(int(xs.max()), width - 1)
    y0 = max(int(ys.min()), 0)
    y1 = min(int(ys.max()), height - 1)
    if x0 > x1 or y0 > y1:
        return mask
    gx, gy = np.meshgrid(
        np.arange(x0, x1 + 1, dtype=np.int64),
        np.arange(y0, y1 + 1, dtype=np.int64),
    )
    if hull.shape[0] == 1:
        inside = (gx == xs[0]) & (gy == ys[0])
    elif hull.shape[0] == 2:
        dx, dy = xs[1] - xs[0], ys[1] - ys[0]
        cross = dx * (gy - ys[0]) - dy * (gx - xs[0])
        dot = dx * (gx - xs[0]) + dy * (gy - ys[0])
        inside = (cross == 0) & (dot >= 0) & (dot <= dx * dx + dy * dy)
    else:
        inside = np.ones(gx.shape, dtype=bool)
        for i in range(hull.shape[0]):
            ax, ay = hull[i]
            bx, by = hull[(i + 1) % hull.shape[0]]
            # CCW polygon: interior is left of every edge
            inside &= (bx - ax) * (gy - ay) - (by - ay) * (gx - ax) >= 0
            if not inside.any():
                break
    mask[y0 : y1 + 1, x0 : x1 + 1] = inside
    return mask


def point_in_hull(px: int, py: int, hull: Sequence[tuple[int, int]]) -> bool:
    """Point membership in a convex polygon given CCW (x, y) vertices.

    Boundary counts as inside; works for degenerate 1- and 2-vertex hulls.
    """
    n = len(hull)
    if n == 1:
        return (px, py) == tuple(hull[0])
    if n == 2:
        (x0, y0), (x1, y1) = hull
        cross = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
        if cross != 0:
            return False
        return min(x0, x1) <= px <= max(x0, x1) and min(y0, y1) <= py <= max(y0, y1)
    for i in range(n):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % n]
        if (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0) < 0:
            return False
    return True


def brute_distance_band(
    region: np.ndarray, radius_px: float
) -> np.ndarray:
    """Pixels outside the region within radius of any region pixel (O(n*m))."""
    h, w = region.shape
    band = np.zeros((h, w), dtype=bool)
    seeds = np.argwhere(region)
    if seeds.size == 0:
        return band
    for y in range(h):
        for x in range(w):
            if region[y, x]:
                continue
            d2 = ((seeds[:, 0] - y) ** 2 + (seeds[:, 1] - x) ** 2).min()
            if math.sqrt(float(d2)) <= radius_px:
                band[y, x] = True
    return band


# scipy's distance transform over the whole frame at once: the reference
# for the strip-by-strip ``raster.distance_band``
def edt_distance_band(region: np.ndarray, radius_um: float, mpp: float) -> np.ndarray:
    """Pixels outside ``region`` within ``radius_um`` of its nearest pixel.

    Distances are exact Euclidean (two-pass squared EDT); the radius is
    converted to pixels as ``radius_um / mpp``.
    """
    from scipy import ndimage

    region = as_bitmask(region)
    if not (math.isfinite(radius_um) and radius_um > 0):
        raise ValueError("radius_um must be positive and finite")
    if not (math.isfinite(mpp) and mpp > 0):
        raise ValueError("mpp must be positive and finite")
    if not region.any():
        return np.zeros_like(region)
    outside = ~region
    if not outside.any():
        return np.zeros_like(region)
    dist = ndimage.distance_transform_edt(outside)
    return outside & (dist <= radius_um / mpp)


# scipy's labelling over the whole frame: the reference for the run-based
# ``raster.connected_components`` and ``raster.label_pieces``
def ndimage_components(mask: np.ndarray) -> InstanceMap:
    """8-connected components of a bool mask, ids in raster-scan order.

    ``ndimage.label`` numbers components by their first pixel in raster
    order, the order ``connected_components`` promises.
    """
    from scipy import ndimage

    labeled, _ = ndimage.label(as_bitmask(mask), structure=np.ones((3, 3), dtype=bool))
    return InstanceMap.from_ids(labeled)


def filled_blobs(mask: np.ndarray) -> list[np.ndarray]:
    """The filled pixels of each 8-connected component, in first-pixel
    order, as ``(N, 2)`` arrays of (row, col); holes count toward ``N``.

    ``ndimage.label`` with a 3x3 structure, ``find_objects``, then
    ``binary_fill_holes`` on each component's box: the reference for
    ``raster.blob_hulls``, which fills no hole.
    """
    from scipy import ndimage

    labeled, _ = ndimage.label(as_bitmask(mask), structure=np.ones((3, 3), dtype=bool))
    out = []
    for i, sl in enumerate(ndimage.find_objects(labeled), start=1):
        rr, cc = np.nonzero(ndimage.binary_fill_holes(labeled[sl] == i))
        out.append(np.stack([rr + sl[0].start, cc + sl[1].start], axis=1))
    return out


# The whole-frame mitosis detector: kept hulls ORed into a frame-sized mask,
# then ``ndimage_components`` over the frame. The reference for
# ``aggregate.detect_mitosis``, which labels the hulls without the frame.
def frame_detect_mitosis(
    candidates: Sequence[tuple], he: np.ndarray, tissue: np.ndarray
) -> InstanceMap:
    """Filter mitosis candidates into hull regions.

    Per candidate: clip a circular ROI at the tile border; reject when the
    ROI's median RGB sum is <= the carbon-dust bound; Otsu the ROI grays
    and keep the dark side; keep 8-connected blobs (holes filled) of at
    least the minimum area; rasterize each blob's convex hull; keep hulls
    overlapping epithelial tissue by at least one pixel. Region ids are
    assigned over the union in raster-scan order. The ROI radius is read
    from ``tmeseg.aggregate`` at each call, so a test that patches it there
    patches both sides.
    """
    check_rgb_tile(he)
    h, w = he.shape[:2]
    union = np.zeros((h, w), dtype=bool)
    r = tmeseg.aggregate.MITOSIS_ROI_RADIUS_PX
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
        box = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        roi = he[box]
        if np.median(roi.astype(np.int32).sum(axis=2)[circle]) <= CARBON_RGB_SUM_MAX:
            continue  # carbon dust
        gray = grayscale(roi)
        t = otsu_threshold(gray[circle])
        dark = circle & (gray <= t)
        epi_box = tissue[box] == EPITHELIAL_TISSUE
        for blob in filled_blobs(dark):
            if len(blob) < MITOSIS_MIN_AREA_PX:
                continue
            hull = convex_hull(blob[:, ::-1])  # over every filled pixel
            region = rasterize_hull(hull, (x1 - x0 + 1, y1 - y0 + 1))
            if (region & epi_box).any():
                union[box] |= region
    return ndimage_components(union)


def frame_mitosis_hits(nuclei: InstanceMap, mitosis: InstanceMap) -> list[int]:
    """Ids of the nuclei under the mitosis raster, from two full-frame masks."""
    return np.unique(nuclei.ids[(nuclei.ids > 0) & (mitosis.ids > 0)]).tolist()


def enumerate_mwu(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Exact two-sided Mann-Whitney by full enumeration of group splits.

    Returns (U of sample a, two-sided p). Midranks handle ties; the
    two-sided p doubles the smaller tail of the permutation distribution
    of U and clips at 1.
    """
    pooled = list(a) + list(b)
    n1, n2 = len(a), len(b)
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        i = j + 1

    def u_of(idx: tuple[int, ...]) -> float:
        r1 = sum(ranks[i] for i in idx)
        return r1 - n1 * (n1 + 1) / 2.0

    observed = u_of(tuple(range(n1)))
    us = [u_of(c) for c in itertools.combinations(range(len(pooled)), n1)]
    total = len(us)
    le = sum(1 for u in us if u <= observed + 1e-12)
    ge = sum(1 for u in us if u >= observed - 1e-12)
    p = min(1.0, 2.0 * min(le / total, ge / total))
    return observed, p


def closed_form_calibrate(
    pairs: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """Through-origin fit count = area/slope with uncentered r²."""
    a = [float(p[0]) for p in pairs]
    c = [float(p[1]) for p in pairs]
    saa = sum(x * x for x in a)
    sac = sum(x * y for x, y in zip(a, c))
    slope = saa / sac
    ss_res = sum((y - x / slope) ** 2 for x, y in zip(a, c))
    ss_tot = sum(y * y for y in c)
    return slope, 1.0 - ss_res / ss_tot


def hand_dice(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    inter = int(np.logical_and(x, y).sum())
    sx, sy = int(x.sum()), int(y.sum())
    if sx + sy == 0:
        return 1.0
    return 2.0 * inter / (sx + sy)


def hand_mcc(tp: int, tn: int, fp: int, fn: int) -> float:
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den)
