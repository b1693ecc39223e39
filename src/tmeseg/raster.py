"""Raster containers and the image-processing primitives shared downstream.

Rasters are plain numpy arrays indexed ``[row, col]``:

* RGB tile      -- ``(H, W, 3) uint8``
* bit mask      -- ``(H, W) bool``
* label raster  -- ``(H, W) uint8`` of class ids
* instance ids  -- ``(H, W) int32`` (0 = no instance)

All operations are pure functions of their inputs and safe to run on
independent workers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np


_BLOCK = 1 << 20  # elements per blockwise scan: a 1 MB mask at most


def all_finite(arr: np.ndarray) -> bool:
    """True when no element is NaN or Inf.

    Checks ``_BLOCK`` elements at a time, so no full-size mask is
    allocated.
    """
    flat = np.ravel(arr)
    return all(
        np.isfinite(flat[i : i + _BLOCK]).all()
        for i in range(0, flat.size, _BLOCK)
    )


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


@dataclass
class LogitStack:
    """Named stack of float32 logit planes, one per class channel.

    ``planes`` has shape ``(C, H, W)``; ``class_ids[i]`` names plane ``i``.
    """

    class_ids: tuple[int, ...]
    planes: np.ndarray

    def __post_init__(self):
        self.class_ids = tuple(int(c) for c in self.class_ids)
        self.planes = np.asarray(self.planes, dtype=np.float32)
        if self.planes.ndim != 3 or self.planes.shape[0] != len(self.class_ids):
            raise ValueError("planes must be (C, H, W) with one plane per channel")
        if len(set(self.class_ids)) != len(self.class_ids):
            raise ValueError("channel class ids must be distinct")
        self._index = {c: i for i, c in enumerate(self.class_ids)}

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]

    def plane(self, class_id: int) -> np.ndarray:
        try:
            return self.planes[self._index[class_id]]
        except KeyError:
            raise KeyError(f"logit stack has no channel for class id {class_id}")

    def require_finite(self) -> None:
        if not all_finite(self.planes):
            raise ValueError("logit planes contain NaN or Inf")


@dataclass
class InstanceAttrs:
    pixel_count: int
    centroid: tuple[float, float]  # (row, col)
    teacher_type: Optional[int] = None


@dataclass
class InstanceMap:
    """Integer instance-id raster plus per-instance attribute records."""

    ids: np.ndarray
    attrs: dict[int, InstanceAttrs] = field(default_factory=dict)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int32)
        if self.ids.ndim != 2:
            raise ValueError("instance ids must be a 2-d raster")

    @property
    def height(self) -> int:
        return self.ids.shape[0]

    @property
    def width(self) -> int:
        return self.ids.shape[1]

    @property
    def instance_ids(self) -> list[int]:
        return sorted(self.attrs)

    @classmethod
    def from_ids(
        cls, ids: np.ndarray, teacher_types: Optional[dict[int, Optional[int]]] = None
    ) -> "InstanceMap":
        """Build the attribute table (counts, centroids) from an id raster."""
        imap = cls(ids)
        imap.attrs = _instance_attrs(*imap.pixel_groups(), teacher_types)
        return imap

    def pixel_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The instance pixels in raster order, grouped by id.

        Returns ``(rows, cols, slot, gids)``: ``gids`` holds the ids present,
        ascending, and ``gids[slot]`` is each pixel's id. Per-instance
        arrays indexed by ``slot`` are sized by ``gids.size``, never by an
        id value.
        """
        flat = self.ids.ravel()
        # a bool mask per block: np.nonzero on the ints themselves is ~8x slower
        index = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [
                np.flatnonzero(flat[i : i + _BLOCK] != 0) + i
                for i in range(0, flat.size, _BLOCK)
            ]
        )
        rows, cols = np.divmod(index, self.width)
        gids, slot = _group_ids(flat[index])
        return rows, cols, slot, gids

    def validate(self) -> None:
        _, _, slot, gids = self.pixel_groups()
        counts = dict(zip(gids.tolist(), np.bincount(slot).tolist()))
        if set(counts) - set(self.attrs):
            raise ValueError("raster contains ids without attribute records")
        if 0 in self.attrs:
            raise ValueError("id 0 is reserved for no-instance")
        if set(self.attrs) - set(counts):
            raise ValueError("attribute records without raster pixels")
        for gid, a in self.attrs.items():
            if a.pixel_count != counts[gid]:
                raise ValueError(
                    f"instance {gid}: pixel_count {a.pixel_count} "
                    f"!= raster count {counts[gid]}"
                )


@dataclass(eq=False)
class RegionList:
    """Instances kept as per-region pixel lists: a few small regions in a
    large frame, with the attribute table and ``pixel_groups`` of an
    ``InstanceMap`` but no full-frame raster.

    ``pixels[i]`` holds the ``(rows, cols)`` of region ``i + 1``, in raster
    order; the regions are numbered by their first pixel in raster order.
    """

    shape: tuple[int, int]
    pixels: list[tuple[np.ndarray, np.ndarray]]
    attrs: dict[int, InstanceAttrs] = field(default_factory=dict)

    @property
    def instance_ids(self) -> list[int]:
        return sorted(self.attrs)

    @cached_property
    def ids(self) -> np.ndarray:
        """The regions painted into a full-frame int32 id raster.

        For comparisons against whole-frame labellings; the pipeline itself
        reads only ``pixel_groups``.
        """
        ids = np.zeros(self.shape, dtype=np.int32)
        for gid, (rows, cols) in enumerate(self.pixels, start=1):
            ids[rows, cols] = gid
        return ids

    def pixel_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``InstanceMap.pixel_groups`` of the painted raster, from the lists."""
        empty = [np.zeros(0, dtype=np.intp)]
        rows = np.concatenate(empty + [r for r, _ in self.pixels])
        cols = np.concatenate(empty + [c for _, c in self.pixels])
        sizes = [r.size for r, _ in self.pixels]
        slot = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
        order = np.argsort(rows * self.shape[1] + cols, kind="stable")
        gids = np.arange(1, len(sizes) + 1, dtype=np.intp)
        return rows[order], cols[order], slot[order], gids


def _instance_attrs(
    rows: np.ndarray,
    cols: np.ndarray,
    slot: np.ndarray,
    gids: np.ndarray,
    types: Optional[dict[int, Optional[int]]] = None,
) -> dict[int, InstanceAttrs]:
    """Pixel count and centroid per id, from ``pixel_groups``.

    Centroids are float64 sums of integer coordinates over the count, so
    they are exact below 2**53 pixels and independent of the pixel order.
    """
    counts = np.bincount(slot)
    centroids = zip(
        np.bincount(slot, weights=rows) / counts,
        np.bincount(slot, weights=cols) / counts,
    )
    types = types or {}
    return {
        gid: InstanceAttrs(n, centroid, types.get(gid))
        for gid, n, centroid in zip(gids.tolist(), counts.tolist(), centroids)
    }


def _group_ids(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids present in ``vals`` (nonzero id pixels), ascending, and each
    pixel's slot among them: ``gids[slot] == vals``.

    Ids up to ``len(vals)`` are grouped by a bincount over their values;
    larger ones by ``np.unique``, so no array is sized by an id value.
    """
    if vals.size and vals.min() < 0:
        raise ValueError("instance ids must be non-negative")
    if vals.size and vals.max() <= vals.size:
        present = np.bincount(vals) > 0
        return np.flatnonzero(present), (np.cumsum(present) - 1)[vals]
    return np.unique(vals, return_inverse=True)


def as_bitmask(arr: np.ndarray) -> np.ndarray:
    m = np.asarray(arr)
    if m.ndim != 2 or m.dtype != np.bool_:
        raise ValueError("bit mask must be a 2-d bool array")
    return m


def check_rgb_tile(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("RGB tile must be (H, W, 3) uint8")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError("RGB tile must be at least 1x1")
    return img


# ---------------------------------------------------------------------------
# Smoothing and thresholding
# ---------------------------------------------------------------------------


def blur_radius(sigma: float) -> int:
    """Gaussian kernel radius, ceil(3*sigma): the context one blurred pixel reads."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return math.ceil(3.0 * sigma)


def gaussian_smooth(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur per channel, reflect edges, rounded to uint8.

    Kernel radius is ceil(3*sigma). Each channel is copied once into a
    contiguous uint8 plane and blurred into a float64 output, which is
    rounded and clipped in place, so the result is independent of channel
    order and input strides.
    """
    from scipy import ndimage  # here, not at the top: commands that never call it skip the import

    check_rgb_tile(img)
    radius = blur_radius(sigma)
    out = np.empty_like(img)
    for ch in range(3):
        sm = ndimage.gaussian_filter(
            np.ascontiguousarray(img[:, :, ch]),
            sigma,
            output=np.float64,
            mode="reflect",
            radius=radius,
        )
        np.rint(sm, out=sm)
        out[:, :, ch] = np.clip(sm, 0, 255, out=sm)
    return out


def grayscale(img: np.ndarray) -> np.ndarray:
    """Rounded mean of R, G, B as uint8.

    Computed as ``(r + g + b + 1) // 3`` in uint16. A mean of three
    integers is never a half, so this equals ``rint(sum / 3)`` exactly.
    """
    check_rgb_tile(img)
    total = img[:, :, 0].astype(np.uint16)
    total += img[:, :, 1]
    total += img[:, :, 2]
    total += 1
    total //= 3
    return total.astype(np.uint8)


def otsu_threshold(gray: np.ndarray) -> int:
    """Threshold maximizing between-class variance over the 256-bin histogram.

    The split is ``{<= t}`` vs ``{> t}``; among equally good thresholds the
    smallest is returned. A single-valued raster returns that value. The
    variance comparison runs in exact integer arithmetic (the between-class
    variance is proportional to (s0*w1 - s1*w0)^2 / (w0*w1)), so the
    maximizer is reproducible bit-for-bit.
    """
    gray = np.asarray(gray)
    if gray.size == 0:
        raise ValueError("raster is empty")
    if gray.dtype != np.uint8:
        raise ValueError("otsu_threshold expects 8-bit values")
    hist = np.bincount(gray.ravel(), minlength=256).tolist()
    nonzero = [v for v in range(256) if hist[v]]
    if len(nonzero) == 1:
        return nonzero[0]
    total = sum(hist)
    grand = sum(v * hist[v] for v in range(256))
    w0 = 0
    s0 = 0
    best_t, best_num, best_den = 0, -1, 1
    for t in range(256):
        w0 += hist[t]
        s0 += t * hist[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        num = (s0 * w1 - (grand - s0) * w0) ** 2
        den = w0 * w1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


# ---------------------------------------------------------------------------
# Connected components and contours
# ---------------------------------------------------------------------------

_STRUCT8 = np.ones((3, 3), dtype=bool)  # ndimage.generate_binary_structure(2, 2)


def connected_components(mask: np.ndarray) -> InstanceMap:
    """Label maximal 8-connected true-regions, ids in raster-scan order.

    Ids start at 1 and follow the order in which each component's first
    pixel is met scanning rows left to right.
    """
    from scipy import ndimage

    mask = as_bitmask(mask)
    labeled, n = ndimage.label(mask, structure=_STRUCT8)
    if n == 0:
        return InstanceMap(np.zeros(mask.shape, dtype=np.int32), {})
    # labels are nonzero exactly where the mask is set; reversed so that
    # earlier occurrences overwrite later ones
    idx = np.flatnonzero(mask)[::-1]
    first = np.full(n + 1, mask.size, dtype=np.int64)
    first[labeled.ravel()[idx]] = idx
    order = np.argsort(first[1:], kind="stable")  # old label-1 -> rank
    if np.array_equal(order, np.arange(n)):  # ndimage's usual scan order
        return InstanceMap.from_ids(labeled)
    remap = np.zeros(n + 1, dtype=np.int32)
    remap[order + 1] = np.arange(1, n + 1, dtype=np.int32)
    return InstanceMap.from_ids(remap[labeled])


def label_pieces(
    pieces: Iterable[tuple[int, int, np.ndarray]], shape: tuple[int, int]
) -> RegionList:
    """``connected_components(union)`` of bool pieces pasted into a
    frame of ``shape``, without building the frame.

    A piece ``(y0, x0, mask)`` sets the frame pixels ``(y0 + r, x0 + c)``
    where ``mask[r, c]``; they must lie inside the frame. Pixels of two
    pieces can be 8-adjacent only where the pieces' bounding boxes, grown by
    one pixel, meet. So a union-find over those boxes (the equivalence
    merging of two-pass labelling: Wu, Otoo and Suzuki, 2009) splits the
    pieces into groups that no component crosses, and each group is
    labelled on a canvas the size of its box. Ids, pixels and attributes
    equal those of the whole-frame labelling: components are numbered by
    their first pixel in raster order, and the attributes come from the
    same ``pixel_groups`` contract as ``InstanceMap.from_ids``.
    """
    from scipy import ndimage

    coords = []  # per nonempty piece: frame rows and cols
    for y0, x0, mask in pieces:
        rr, cc = np.nonzero(mask)
        if rr.size:
            coords.append((rr + y0, cc + x0))
    boxes = np.array(
        [(r.min(), c.min(), r.max(), c.max()) for r, c in coords], dtype=np.int64
    ).reshape(-1, 4)
    parent = list(range(len(coords)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, len(coords)):
        top, left, bottom, right = boxes[i] + (-1, -1, 1, 1)
        earlier = boxes[:i]
        meets = (
            (earlier[:, 0] <= bottom)
            & (earlier[:, 2] >= top)
            & (earlier[:, 1] <= right)
            & (earlier[:, 3] >= left)
        )
        for j in np.flatnonzero(meets).tolist():
            parent[find(j)] = find(i)
    groups: dict[int, list[int]] = defaultdict(list)
    for i in range(len(coords)):
        groups[find(i)].append(i)

    found = []  # (first flat index, rows, cols) per component
    width = shape[1]
    for members in groups.values():
        rows = np.concatenate([coords[i][0] for i in members])
        cols = np.concatenate([coords[i][1] for i in members])
        top, left = rows.min(), cols.min()
        canvas = np.zeros((rows.max() - top + 1, cols.max() - left + 1), dtype=bool)
        canvas[rows - top, cols - left] = True
        labeled, _ = ndimage.label(canvas, structure=_STRUCT8)
        # canvas raster order is frame raster order: each run starts at its first pixel
        rr, cc = np.nonzero(labeled)
        lab = labeled[rr, cc]
        order = np.argsort(lab, kind="stable")
        splits = np.flatnonzero(np.diff(lab[order])) + 1
        for part in np.split(order, splits):
            r, c = rr[part] + top, cc[part] + left
            found.append((int(r[0]) * width + int(c[0]), r, c))
    found.sort(key=lambda item: item[0])

    regions = RegionList(tuple(shape), [(r, c) for _, r, c in found])
    regions.attrs = _instance_attrs(*regions.pixel_groups())
    return regions


@dataclass
class Contour:
    """Filled pixel set of one 8-connected component."""

    pixels: np.ndarray  # (N, 2) int rows of (row, col)
    area: int


def contours(mask: np.ndarray) -> list[Contour]:
    """One contour per 8-connected component; holes count toward the area."""
    from scipy import ndimage

    mask = as_bitmask(mask)
    labeled, n = ndimage.label(mask, structure=_STRUCT8)
    out: list[Contour] = []
    if n == 0:
        return out
    slices = ndimage.find_objects(labeled)
    for i, sl in enumerate(slices, start=1):
        comp = labeled[sl] == i
        filled = ndimage.binary_fill_holes(comp)
        rr, cc = np.nonzero(filled)
        pixels = np.stack([rr + sl[0].start, cc + sl[1].start], axis=1)
        out.append(Contour(pixels=pixels, area=int(pixels.shape[0])))
    return out


# ---------------------------------------------------------------------------
# Convex hulls
# ---------------------------------------------------------------------------


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
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear collapse to the two extremes
        hull = [pl[0], pl[-1]]
    return np.asarray(hull, dtype=np.int64)


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


# ---------------------------------------------------------------------------
# Distance bands
# ---------------------------------------------------------------------------


def _max_squared(r: float, limit: int) -> int:
    """The largest integer ``d2 <= limit`` with ``sqrt(float(d2)) <= r``.

    ``sqrt`` is monotone and integers below 2**53 are exact in float64, so
    for every integer ``d2 <= limit`` the test ``d2 <= _max_squared(r,
    limit)`` is the test ``sqrt(float64(d2)) <= r``, bit for bit.
    """
    t = limit if r * r >= limit else math.floor(r * r)
    while t < limit and math.sqrt(t + 1) <= r:
        t += 1
    while math.sqrt(t) > r:
        t -= 1
    return t


def distance_band(region: np.ndarray, radius_um: float, mpp: float) -> np.ndarray:
    """Pixels outside ``region`` within ``radius_um`` of its nearest pixel.

    Distances are exact Euclidean; the radius is converted to pixels as
    ``r = radius_um / mpp``. The frame is done in strips of rows. Each
    strip is read through a window grown by ``floor(r)`` rows on either
    side (clamped to the frame), where scipy's feature transform finds each
    pixel's nearest region pixel. That is exact: a region pixel within ``r``
    of a strip pixel is at most ``floor(r)`` rows away, so it lies in the
    window, and a pixel farther than ``r`` from the region is no nearer to
    the window's part of it. A pixel joins the band when its integer
    squared distance is at most ``_max_squared``'s ceiling, which is the
    test ``sqrt(d2) <= r`` on scipy's float64 distance map, bit for bit. A
    window without region pixels leaves its strip empty.

    A strip is at least ``2 * floor(r)`` rows and about ``_BLOCK`` pixels,
    so at most twice the frame's rows are transformed, and the peak memory
    depends on the width and the radius, not on the height.
    """
    region = as_bitmask(region)
    if not (math.isfinite(radius_um) and radius_um > 0):
        raise ValueError("radius_um must be positive and finite")
    if not (math.isfinite(mpp) and mpp > 0):
        raise ValueError("mpp must be positive and finite")
    h, w = region.shape
    r = radius_um / mpp
    halo = h if r >= h else math.floor(r)
    ceiling = _max_squared(r, (h - 1) ** 2 + (w - 1) ** 2)
    strip = max(_BLOCK // w, 1, 2 * halo)
    band = np.zeros_like(region)
    for y0 in range(0, h, strip):
        y1 = min(y0 + strip, h)
        top = max(y0 - halo, 0)
        window = region[top : min(y1 + halo, h)]
        if window.any():
            _strip_band(window, y0 - top, band[y0:y1], ceiling)
    return band


def _strip_band(window: np.ndarray, first: int, out: np.ndarray, ceiling: int) -> None:
    """Write into ``out`` the band of ``window``'s rows ``first:first + len(out)``.

    Squared distances are taken in blocks of about ``_BLOCK`` pixels; the
    feature transform and the blocks are freed on return.
    """
    from scipy import ndimage

    ft = ndimage.distance_transform_edt(~window, return_distances=False, return_indices=True)
    width = window.shape[1]
    rows = max(_BLOCK // width, 1)
    cols = np.arange(width)
    for a in range(0, out.shape[0], rows):
        b = min(a + rows, out.shape[0])
        dy = ft[0, first + a : first + b] - np.arange(first + a, first + b)[:, None]
        dx = ft[1, first + a : first + b] - cols
        dy *= dy
        dx *= dx
        dy += dx
        np.less_equal(dy, ceiling, out=out[a:b])
        out[a:b] &= ~window[first + a : first + b]
