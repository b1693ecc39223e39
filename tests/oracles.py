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

from tmeseg.config import RunConfig
from tmeseg.raster import (
    InstanceMap,
    as_bitmask,
    check_rgb_tile,
    connected_components,
    contours,
    convex_hull,
    grayscale,
    otsu_threshold,
    rasterize_hull,
)
from tmeseg.taxonomy import EPITHELIAL_TISSUE


def exhaustive_otsu(values: Sequence[int]) -> int:
    """Exact between-class-variance maximizer over all 256 thresholds.

    Rational arithmetic throughout; smallest maximizing threshold wins;
    a single distinct value returns that value.
    """
    hist = [0] * 256
    for v in values:
        hist[int(v)] += 1
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


# The whole-frame mitosis detector: kept hulls ORed into a frame-sized mask,
# then ``connected_components`` over the frame. The reference for
# ``aggregate.detect_mitosis``, which labels the hulls without the frame.
def frame_detect_mitosis(
    candidates: Sequence[tuple],
    he: np.ndarray,
    tissue: np.ndarray,
    config: Optional[RunConfig] = None,
) -> InstanceMap:
    """Filter mitosis candidates into an instance map of hull regions.

    Per candidate: clip a circular ROI at the tile border; reject when the
    ROI's median RGB sum is <= the carbon-dust bound; Otsu the ROI grays
    and keep the dark side; keep 8-connected blobs (holes filled) of at
    least the minimum area; rasterize each blob's convex hull; keep hulls
    overlapping epithelial tissue by at least one pixel. Region ids are
    assigned over the union in raster-scan order.
    """
    cfg = config or RunConfig()
    check_rgb_tile(he)
    h, w = he.shape[:2]
    union = np.zeros((h, w), dtype=bool)
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
        box = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        roi = he[box]
        if np.median(roi.astype(np.int32).sum(axis=2)[circle]) <= cfg.carbon_rgb_sum_max:
            continue  # carbon dust
        gray = grayscale(roi)
        t = otsu_threshold(gray[circle])
        dark = circle & (gray <= t)
        epi_box = tissue[box] == EPITHELIAL_TISSUE
        for blob in contours(dark):
            if blob.area < cfg.mitosis_min_area_px:
                continue
            hull = convex_hull(blob.pixels[:, ::-1])
            region = rasterize_hull(hull, (x1 - x0 + 1, y1 - y0 + 1))
            if (region & epi_box).any():
                union[box] |= region
    return connected_components(union)


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
