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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import BLUR_RADIUS, BLUR_SIGMA


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


class InstanceMap:
    """Labelled instances of a frame of ``shape``: their pixels, grouped by
    id, and one attribute record per id.

    Both constructors compute the groups and ``attrs`` once:
    ``InstanceMap(ids)`` scans an int32 id raster, and ``regions`` takes
    the region pixels themselves. ``pixel_groups`` returns the stored
    arrays and ``validate`` checks ``attrs`` against them. ``ids`` is the
    id raster, read-only: the one scanned, or the groups painted on first use.
    """

    def __init__(self, ids: np.ndarray, teacher_types: Optional[dict[int, Optional[int]]] = None):
        ids = np.asarray(ids, dtype=np.int32)
        if ids.ndim != 2:
            raise ValueError("instance ids must be a 2-d raster")
        flat = ids.ravel()
        # a bool mask per block: np.nonzero on the ints themselves is ~8x slower
        index = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [np.flatnonzero(flat[i : i + _BLOCK] != 0) + i for i in range(0, flat.size, _BLOCK)]
        )
        rows, cols = np.divmod(index, ids.shape[1])
        gids, slot = _group_ids(flat[index])
        self._keep(ids.shape, (rows, cols, slot, gids), teacher_types)
        self.ids = _read_only(ids.view())

    @classmethod
    def from_ids(cls, ids: np.ndarray, teacher_types: Optional[dict] = None) -> "InstanceMap":
        """``InstanceMap(ids, teacher_types)``."""
        return cls(ids, teacher_types)

    @classmethod
    def regions(
        cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, labels: np.ndarray
    ) -> "InstanceMap":
        """The regions of a frame of ``shape`` given as their pixels
        ``(rows, cols)``, in any order, and a label per pixel, in any
        numbering: the pixels are put in raster order and the regions
        numbered ``1..n`` by their first pixel in raster order. This is the
        one place that numbering is made.
        """
        shape = (int(shape[0]), int(shape[1]))
        order = np.argsort(rows * shape[1] + cols, kind="stable")
        gids, slot = _group_ids(labels[order])
        n = gids.size
        # reversed so that each label's earliest pixel is written last
        first = np.empty(n, dtype=np.intp)
        first[slot[::-1]] = np.arange(slot.size - 1, -1, -1)
        rank = np.argsort(np.argsort(first))
        imap = cls.__new__(cls)
        imap._keep(shape, (rows[order], cols[order], rank[slot], np.arange(1, n + 1)))
        return imap

    def _keep(self, shape, groups, types: Optional[dict[int, Optional[int]]] = None) -> None:
        """Store the groups, read-only, and their attribute records.

        Centroids are float64 sums of integer coordinates over the count, so
        they are exact below 2**53 pixels and independent of the pixel order.
        """
        self.shape = shape
        self._groups = tuple(_read_only(a) for a in groups)
        rows, cols, slot, gids = groups
        counts = np.bincount(slot)
        centroids = zip(
            np.bincount(slot, weights=rows) / counts, np.bincount(slot, weights=cols) / counts
        )
        types = types or {}
        self.attrs = {
            gid: InstanceAttrs(n, centroid, types.get(gid))
            for gid, n, centroid in zip(gids.tolist(), counts.tolist(), centroids)
        }

    @property
    def instance_ids(self) -> list[int]:
        return sorted(self.attrs)

    @cached_property
    def ids(self) -> np.ndarray:
        """The groups painted into a full-frame int32 id raster."""
        rows, cols, slot, gids = self._groups
        ids = np.zeros(self.shape, dtype=np.int32)
        ids[rows, cols] = gids[slot]
        return _read_only(ids)

    def pixel_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The instance pixels in raster order, grouped by id.

        Returns ``(rows, cols, slot, gids)``: ``gids`` holds the ids present,
        ascending, and ``gids[slot]`` is each pixel's id. Per-instance
        arrays indexed by ``slot`` are sized by ``gids.size``, never by an
        id value.
        """
        return self._groups

    def validate(self) -> None:
        _, _, slot, gids = self._groups
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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


def gaussian_smooth(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur per channel, reflect edges, rounded to uint8.

    Sigma is ``BLUR_SIGMA`` and the kernel radius ``BLUR_RADIUS``, ceil(3
    sigma). Each channel is copied once into a contiguous uint8 plane and
    blurred into a float64 output, which is rounded and clipped in place,
    so the result is independent of channel order and input strides.
    """
    from scipy import ndimage  # here, not at the top: commands that never call it skip the import

    check_rgb_tile(img)
    out = np.empty_like(img)
    for ch in range(3):
        sm = ndimage.gaussian_filter(
            np.ascontiguousarray(img[:, :, ch]),
            BLUR_SIGMA,
            output=np.float64,
            mode="reflect",
            radius=BLUR_RADIUS,
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
# Connected components and blobs
# ---------------------------------------------------------------------------


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal runs ``(row, start, stop)`` of a bool mask's set pixels,
    in raster order, stops exclusive. Rows are taken in blocks of about
    ``_BLOCK`` pixels, so no frame-sized temporary is allocated."""
    h, w = mask.shape
    step = max(_BLOCK // max(w, 1), 1)
    found = [np.zeros(0, dtype=np.intp)]
    for y0 in range(0, h, step):
        padded = np.pad(mask[y0 : y0 + step], ((0, 0), (1, 1)))
        # edges alternate start, stop along each row
        found.append(np.flatnonzero(padded[:, 1:] != padded[:, :-1]) + y0 * (w + 1))
    row, col = np.divmod(np.concatenate(found), w + 1)
    return row[::2], col[::2], col[1::2]


def _run_labels(
    shape: tuple[int, int], row: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """Each run's 8-connected component, for maximal runs in raster order:
    the index of the component's first run, so labels ascend with each
    component's first pixel.

    Run-based labelling (He, Chao and Suzuki, 2008): runs on adjacent rows
    touch when ``start_a <= stop_b`` and ``start_b <= stop_a``, so a run's
    partners on the row above are one range, found by two ``searchsorted``
    calls. The equivalences are merged (Wu, Otoo and Suzuki, 2009) by a
    vectorised union-find: each round hooks the larger root of every
    unmerged pair onto the smaller, then jumps pointers to the roots.
    """
    span = shape[1] + 1  # above every stop: row * span + col orders by row, then col
    lo = np.searchsorted(row * span + stop, (row - 1) * span + start)
    hi = np.searchsorted(row * span + start, (row - 1) * span + stop, side="right")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(row.size), count)
    b = np.arange(a.size) - np.repeat(np.cumsum(count) - count - lo, count)
    label = np.arange(row.size)
    while not np.array_equal(label[a], label[b]):
        la, lb = label[a], label[b]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(label[label], label):
            label = label[label]
    return label


def _label_runs(
    shape: tuple[int, int], row: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> InstanceMap:
    """``_run_labels``' components, the runs expanded into their pixels."""
    length = stop - start
    cols = np.arange(length.sum())
    cols -= np.repeat(np.cumsum(length) - length - start, length)
    label = np.repeat(_run_labels(shape, row, start, stop), length)
    return InstanceMap.regions(shape, np.repeat(row, length), cols, label)


def connected_components(mask: np.ndarray) -> InstanceMap:
    """Label maximal 8-connected true-regions, ids in raster-scan order.

    Ids start at 1 and follow the order in which each component's first
    pixel is met scanning rows left to right.
    """
    mask = as_bitmask(mask)
    return _label_runs(mask.shape, *_runs(mask))


def label_pieces(
    pieces: Iterable[tuple[int, int, np.ndarray]], shape: tuple[int, int]
) -> InstanceMap:
    """``connected_components(union)`` of bool pieces pasted into a
    frame of ``shape``, without building the frame.

    A piece ``(y0, x0, mask)`` sets the frame pixels ``(y0 + r, x0 + c)``
    where ``mask[r, c]``; they must lie inside the frame. The pieces' runs,
    moved into the frame and sorted, are merged where they overlap or abut
    on a row, which gives the union's maximal runs, and these are labelled
    as ``connected_components`` labels a frame's.
    """
    span = shape[1] + 1
    keys = [np.zeros((2, 0), dtype=np.intp)]  # row * span + (start, stop) in the frame
    for y0, x0, mask in pieces:
        row, start, stop = _runs(mask)
        keys.append((row + y0) * span + x0 + np.stack([start, stop]))
    first, last = np.concatenate(keys, axis=1)
    order = np.argsort(first, kind="stable")
    first, last = first[order], np.maximum.accumulate(last[order])
    # a run heads a merged run unless it overlaps or abuts a run before it on its
    # row; a merged run ends at the run before the next head (np.roll), or the last
    head = np.ones(first.size, dtype=bool)
    head[1:] = first[1:] > last[:-1]
    row, start = np.divmod(first[head], span)
    return _label_runs(shape, row, start, last[np.roll(head, -1)] - row * span)


def blobs(mask: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(pixel_count, run_ends)`` per 8-connected component of a bool
    mask, in the order of the components' first pixels.

    ``run_ends`` is ``(2 * runs, 2)`` of (row, col): the first and the last
    pixel of each of the component's runs.
    """
    mask = as_bitmask(mask)
    row, start, stop = _runs(mask)
    label = _run_labels(mask.shape, row, start, stop)
    # sorted by label, each component's runs are consecutive from its head
    order = np.argsort(label, kind="stable")
    heads = np.flatnonzero(np.diff(label[order], prepend=-1))
    counts = np.add.reduceat((stop - start)[order], heads)
    ends = np.stack([row, start, row, stop - 1], axis=1)[order].reshape(-1, 2)
    yield from zip(counts.tolist(), np.split(ends, 2 * heads[1:]))


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

    Distances are exact Euclidean, with ``r = radius_um / mpp`` pixels. With
    ``c`` the ceiling of ``_max_squared(r)``, a pixel ``dy`` rows from the
    region's run ``[start, stop)`` is within ``r`` of it exactly when its
    column is in ``[start - k, stop - 1 + k]``, ``k = isqrt(c - dy**2)``: the
    test ``sqrt(d2) <= r`` in float64, bit for bit. The band is the union of
    these intervals less the region. They are summed as +1/-1 edges into a
    buffer of about ``_BLOCK`` counts, one strip of rows at a time, and the
    cumulative sum along each row is the coverage; the peak memory depends
    on the width, not the height.
    """
    region = as_bitmask(region)
    if not (math.isfinite(radius_um) and radius_um > 0):
        raise ValueError("radius_um must be positive and finite")
    if not (math.isfinite(mpp) and mpp > 0):
        raise ValueError("mpp must be positive and finite")
    band = np.zeros_like(region)
    row, start, stop = _runs(region)
    if not row.size:
        return band
    h, w = region.shape
    ceiling = _max_squared(radius_um / mpp, (h - 1) ** 2 + (w - 1) ** 2)
    reach = math.isqrt(ceiling)
    # beyond w columns an interval covers the whole row, so k and the pad stop at w
    pad = min(reach, w)
    span = w + 2 * pad + 1
    k = [min(math.isqrt(ceiling - dy * dy), w) for dy in range(reach + 1)]
    first = np.searchsorted(row, np.arange(h + 1))  # the runs of rows y.. start at first[y]
    lo, hi = row * span + start + pad, row * span + stop + pad
    step = max(_BLOCK // span, 1)
    edges = np.empty(step * span, dtype=np.int32)
    for y0 in range(0, h, step):
        y1 = min(y0 + step, h)
        buf = edges[: (y1 - y0) * span]
        buf[:] = 0
        for dy in range(max(-reach, y0 - h + 1), min(reach, y1 - 1) + 1):
            a, b = first[max(y0 - dy, 0)], first[min(y1 - dy, h)]
            if a < b:
                # the starts of one dy are distinct, and so are the stops
                buf[lo[a:b] + ((dy - y0) * span - k[abs(dy)])] += 1
                buf[hi[a:b] + ((dy - y0) * span + k[abs(dy)])] -= 1
        np.cumsum(buf, out=buf)  # each row's edges sum to 0
        cover = buf.reshape(y1 - y0, span)[:, pad : pad + w]
        np.greater(cover, 0, out=band[y0:y1])
        np.greater(band[y0:y1], region[y0:y1], out=band[y0:y1])
    return band
