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
from types import MappingProxyType
from typing import NamedTuple, Optional

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


@dataclass(frozen=True)
class LogitStack:
    """Named stack of float32 logit planes, one per class channel.

    ``planes`` has shape ``(C, H, W)``; ``class_ids[i]`` names plane ``i``.
    The planes are checked finite when the stack is built, and the array
    kept is read-only: the one passed in, when it is already float32 and
    owns its data.
    """

    class_ids: tuple[int, ...]
    planes: np.ndarray

    def __post_init__(self):
        class_ids = tuple(int(c) for c in self.class_ids)
        planes = _owned(np.asarray(self.planes, dtype=np.float32))
        if planes.ndim != 3 or planes.shape[0] != len(class_ids):
            raise ValueError("planes must be (C, H, W) with one plane per channel")
        if len(set(class_ids)) != len(class_ids):
            raise ValueError("channel class ids must be distinct")
        if not all_finite(planes):
            raise ValueError("logit planes contain NaN or Inf")
        object.__setattr__(self, "class_ids", class_ids)
        object.__setattr__(self, "planes", _read_only(planes))
        object.__setattr__(self, "_index", {c: i for i, c in enumerate(class_ids)})

    def __reduce__(self):
        """Pickled and copied through the constructor, which checks the copy."""
        return LogitStack, (self.class_ids, self.planes)

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


class InstanceAttrs(NamedTuple):
    """One instance's record; a tuple, so it cannot change once built."""

    pixel_count: int
    centroid: tuple[float, float]  # (row, col)
    teacher_type: Optional[int] = None


class InstanceMap:
    """Labelled instances of a frame of ``shape``: their pixels, grouped by
    id, and one attribute record per id.

    Every map is built by one core, ``from_pixels``, from the ascending flat
    ``index`` of the nonzero pixels and their ids: ``InstanceMap(ids)``
    scans an int32 id raster for them, and the labellings pass their runs'
    pixels. It keeps three read-only arrays: ``index``; ``gids``, the ids
    present, ascending; and ``slot``, each pixel's place among them, so
    ``gids[slot]`` is each pixel's id. Per-instance arrays are in ``gids``
    order and sized by ``gids.size``, never by an id value. ``attrs`` is a
    read-only mapping of records derived from them. ``ids`` is the id
    raster, read-only, painted from the pixels on first use: no map keeps a
    caller's raster, so no later write by the caller reaches it. Nothing can
    be set or deleted once the map is built.
    """

    def __init__(self, ids: np.ndarray, teacher_types: Optional[dict[int, Optional[int]]] = None):
        ids = np.asarray(ids)
        # checked before the cast, which would wrap large ids and truncate fractions
        if ids.dtype.kind not in "iu" or ids.size and (ids.min() < 0 or ids.max() >= 2**31):
            raise ValueError("instance ids must be non-negative integers below 2**31")
        ids = ids.astype(np.int32, copy=False)
        if ids.ndim != 2:
            raise ValueError("instance ids must be a 2-d raster")
        flat = ids.ravel()
        # a bool mask per block: np.nonzero on the ints themselves is ~8x slower
        index = np.concatenate(
            [np.zeros(0, dtype=np.intp)]
            + [np.flatnonzero(flat[i : i + _BLOCK] != 0) + i for i in range(0, flat.size, _BLOCK)]
        )
        self._keep_pixels(ids.shape, index, flat[index], teacher_types)

    @classmethod
    def from_ids(cls, ids: np.ndarray, teacher_types: Optional[dict] = None) -> "InstanceMap":
        """``InstanceMap(ids, teacher_types)``."""
        return cls(ids, teacher_types)

    @classmethod
    def from_pixels(
        cls,
        shape: tuple[int, int],
        index: np.ndarray,
        ids: np.ndarray,
        teacher_types: Optional[dict[int, Optional[int]]] = None,
    ) -> "InstanceMap":
        """The instances of a frame of ``shape`` whose nonzero pixels lie at
        the ascending flat ``index`` with ``ids``; no raster is built. The
        ``index`` kept is made read-only: the one passed in, when it is an
        intp array that owns its data, else a copy."""
        imap = cls.__new__(cls)
        imap._keep_pixels(shape, index, ids, teacher_types)
        return imap

    def _keep_pixels(self, shape, index, ids, types: Optional[dict[int, Optional[int]]]) -> None:
        """Store ``shape``, ``index``, ``slot``, ``gids`` and the attribute records.

        Centroids are float64 sums of integer coordinates over the count, so
        they are exact below 2**53 pixels and independent of the pixel order.
        """
        index = _owned(np.asarray(index, dtype=np.intp))
        gids, slot = _group_ids(np.asarray(ids))
        counts = np.bincount(slot)
        rows, cols = np.divmod(index, shape[1])
        centroids = zip(
            np.bincount(slot, weights=rows) / counts, np.bincount(slot, weights=cols) / counts
        )
        types = types or {}
        object.__setattr__(self, "shape", (int(shape[0]), int(shape[1])))
        for name, arr in (("index", index), ("slot", slot), ("gids", gids)):
            object.__setattr__(self, name, _read_only(arr))
        object.__setattr__(self, "attrs", MappingProxyType({
            gid: InstanceAttrs(n, centroid, types.get(gid))
            for gid, n, centroid in zip(gids.tolist(), counts.tolist(), centroids)
        }))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: an InstanceMap is fixed once built")

    __delattr__ = __setattr__

    @property
    def instance_ids(self) -> list[int]:
        return sorted(self.attrs)

    @cached_property
    def ids(self) -> np.ndarray:
        """The pixels painted into a full-frame int32 id raster."""
        ids = np.zeros(self.shape, dtype=np.int32)
        np.put(ids, self.index, self.gids[self.slot])
        return _read_only(ids)

    def __reduce__(self):
        """Pickled and copied as its pixels: ``from_pixels`` builds the copy."""
        types = {gid: a.teacher_type for gid, a in self.attrs.items()}
        return InstanceMap.from_pixels, (self.shape, self.index, self.gids[self.slot], types)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _owned(arr: np.ndarray) -> np.ndarray:
    """``arr``, or a copy when it is a view: a view's base could still be written."""
    return arr if arr.base is None else arr.copy()


def _group_ids(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids present in ``vals`` (nonzero id pixels), ascending, and each
    pixel's slot among them: ``gids[slot] == vals``.

    Ids up to ``len(vals)`` are grouped by a bincount over their values;
    larger ones by ``np.unique``, so no array is sized by an id value.
    """
    if vals.size and vals.min() < 1:
        raise ValueError("instance ids must be positive")
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
    """Separable Gaussian blur of each channel, reflect edges, rounded to uint8.

    Sigma is ``BLUR_SIGMA`` and the kernel radius ``BLUR_RADIUS``, ceil(3
    sigma). One filter call blurs rows and columns of all three channels
    into a float64 output, which is rounded and clipped in place; scipy
    filters each line in float64 whatever its stride, so the result is
    independent of the input's strides. The filter walks the memory in its
    own order, into an output of the same layout: plane by plane when the
    channels lie apart, as in a channel-last view of the ``(3, H, W)``
    planes ``aggregate`` reads, and pixel by pixel when they are
    interleaved. Either order over the other layout is 10-30 % slower per
    cell on a 2-CPU host.
    """
    from scipy import ndimage  # here, not at the top: commands that never call it skip the import

    check_rgb_tile(img)
    planar = img.strides[2] > img.strides[1]
    src = np.moveaxis(img, 2, 0) if planar else img
    sm = np.empty_like(src, dtype=np.float64)
    ndimage.gaussian_filter(
        src, BLUR_SIGMA, output=sm, mode="reflect", radius=BLUR_RADIUS,
        axes=(1, 2) if planar else (0, 1),
    )
    np.rint(sm, out=sm)
    out = np.clip(sm, 0, 255, out=sm).astype(np.uint8)
    return np.moveaxis(out, 0, 2) if planar else out


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
    """Threshold maximizing between-class variance over the 256-bin
    histogram, ``_otsu_rows`` of it: the split is ``{<= t}`` vs ``{> t}``.
    The histogram is summed over ``_BLOCK``-pixel blocks, since ``bincount``
    widens its input to intp."""
    gray = np.asarray(gray)
    if gray.size == 0:
        raise ValueError("raster is empty")
    if gray.dtype != np.uint8:
        raise ValueError("otsu_threshold expects 8-bit values")
    flat = gray.ravel()
    hist = sum(np.bincount(flat[i : i + _BLOCK], minlength=256) for i in range(0, flat.size, _BLOCK))
    return int(_otsu_rows(hist[None])[0])


def _otsu_rows(hist: np.ndarray) -> np.ndarray:
    """Otsu's threshold of each row of ``(n, 256)`` value counts, exactly.

    With ``w0``, ``s0`` the count and sum of the values ``<= t`` and ``N``,
    ``S`` the row's, the between-class variance is proportional to ``d**2 /
    den``, ``d = s0 * N - S * w0``, ``den = w0 * (N - w0)``: integers, in
    int64 while ``255 * N**2 < 2**62``. The float64 score takes four
    roundings, within a relative 5e-16, so every exact maximizer scores
    within ``1e-12`` of the row's best float; where several do, Python ints
    decide, ties to the smallest. A single-valued row returns that value.
    """
    present = hist > 0
    big = 255 * int(hist.sum(axis=1).max(initial=0)) ** 2 >= 1 << 62
    hist = hist.astype(object if big else np.int64)
    w0 = np.cumsum(hist, axis=1)
    s0 = np.cumsum(hist * np.arange(256), axis=1)
    d = s0 * w0[:, -1:] - s0[:, -1:] * w0
    den = w0 * (w0[:, -1:] - w0)
    score = np.full(hist.shape, -1.0)
    np.divide(d.astype(float) ** 2, den.astype(float), out=score, where=den > 0)
    # the smallest threshold of a split is a value present: the one below has less
    near = present & (score >= score.max(axis=1, keepdims=True) * (1 - 1e-12))
    best = np.argmax(near, axis=1)
    for i in np.flatnonzero(near.sum(axis=1) > 1).tolist():
        num, dn = -1, 1
        for t in np.flatnonzero(near[i]).tolist():
            if int(d[i, t]) ** 2 * dn > num * int(den[i, t]):
                best[i], num, dn = t, int(d[i, t]) ** 2, int(den[i, t])
    single = present.sum(axis=1) == 1
    best[single] = np.argmax(present[single], axis=1)
    return best


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
    ``1..n``, numbered by each component's first run and so by its first
    pixel. This is the one place regions are numbered.

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
    # each root is its component's first run: number the roots 1..n in run order
    return np.cumsum(label == np.arange(row.size))[label]


def _run_pixels(row: np.ndarray, start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pixels ``(rows, cols)`` of runs ``[start, stop)`` on ``row``, run by run."""
    length = stop - start
    cols = np.arange(length.sum())
    cols -= np.repeat(np.cumsum(length) - length - start, length)
    return np.repeat(row, length), cols


def _label_runs(
    shape: tuple[int, int], row: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> InstanceMap:
    """``_run_labels``' components; runs in raster order give an ascending flat index."""
    offset = row * shape[1]
    _, index = _run_pixels(row, offset + start, offset + stop)
    label = np.repeat(_run_labels(shape, row, start, stop), stop - start)
    return InstanceMap.from_pixels(shape, index, label)


def connected_components(mask: np.ndarray) -> InstanceMap:
    """Label maximal 8-connected true-regions, ids in raster-scan order.

    Ids start at 1 and follow the order in which each component's first
    pixel is met scanning rows left to right.
    """
    mask = as_bitmask(mask)
    return _label_runs(mask.shape, *_runs(mask))


def label_pieces(
    shape: tuple[int, int], row: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> InstanceMap:
    """``connected_components`` of the union of row runs in a frame of
    ``shape``, without building the frame.

    Run ``i`` sets the pixels ``[start[i], stop[i])`` of row ``row[i]``;
    runs lie inside the frame and may come in any order, repeat, overlap
    or abut. ``_merge_runs`` gives the union's maximal runs, and these are
    labelled as ``connected_components`` labels a frame's.
    """
    return _label_runs(shape, *_merge_runs(shape, row, start, stop))


def _merge_runs(
    shape: tuple[int, int], row: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal runs, in raster order, of the union of row runs given in
    any order: sorted, runs are merged where they overlap or abut on a row."""
    span = shape[1] + 1  # row * span + col orders by row, then col
    first = row * span + start
    order = np.argsort(first, kind="stable")
    first, last = first[order], np.maximum.accumulate((row * span + stop)[order])
    # a run heads a merged run unless it overlaps or abuts a run before it on its
    # row; a merged run ends at the run before the next head (np.roll), or the last
    head = np.ones(first.size, dtype=bool)
    head[1:] = first[1:] > last[:-1]
    row, start = np.divmod(first[head], span)
    return row, start, last[np.roll(head, -1)] - row * span


def blob_hulls(
    mask: np.ndarray, min_area: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The convex hulls of a bool mask's 8-connected components of at least
    ``min_area`` pixels, as row intervals ``(hull, row, start, stop)``: hull
    ``hull`` holds the columns ``[start, stop)`` of ``row``. Hulls are
    numbered ``0..`` by their components' first pixels; rows ascend.

    A component's rows are consecutive; with ``a(y)`` and ``b(y)`` the
    columns of row ``y``'s first and last pixel, the hull's left edge is
    the lower convex envelope of ``a`` and its right edge the upper one of
    ``b``. The columns from the integer ceiling of the one to the floor of
    the other (``_ceil_envelope``) are exactly the row's pixel centres
    inside or on the polygon, for points and segments too. Runs are only
    sorted and grouped by ``_run_labels``' labels, whatever their numbering.
    """
    mask = as_bitmask(mask)
    row, start, stop = _runs(mask)
    label = _run_labels(mask.shape, row, start, stop)
    # sorted by label, each component's runs are consecutive and in raster order
    order = np.argsort(label, kind="stable")
    label, row, start, stop = label[order], row[order], start[order], stop[order]
    # one group of runs per (component, row): first start, last stop
    group = np.ones(row.size, dtype=bool)
    group[1:] = (label[1:] != label[:-1]) | (row[1:] != row[:-1])
    first = np.flatnonzero(group)
    a, b = start[first].tolist(), (stop[np.roll(group, -1)] - 1).tolist()
    label, row = label[first], row[first]
    heads = np.flatnonzero(np.diff(label, prepend=-1))  # each component's top row
    keep = np.add.reduceat(np.add.reduceat(stop - start, first), heads) >= min_area
    bounds = np.append(heads, row.size)
    lo, hi = [], []
    for i, j in zip(bounds[:-1][keep].tolist(), bounds[1:][keep].tolist()):
        lo += _ceil_envelope(a[i:j])
        hi += [1 - v for v in _ceil_envelope([-v for v in b[i:j]])]
    heights = np.diff(bounds)
    hull = np.repeat(np.arange(keep.sum()), heights[keep])
    return hull, row[np.repeat(keep, heights)], np.array(lo, np.intp), np.array(hi, np.intp)


def _ceil_envelope(vals: list[int]) -> list[int]:
    """The ceiling, at each ``i``, of the lower convex envelope of the
    points ``(i, vals[i])``, in integer arithmetic."""
    chain: list[tuple[int, int]] = []  # the envelope's vertices
    for i, v in enumerate(vals):
        # drop the last vertex while it lies on or above the chord that skips it
        while len(chain) > 1:
            (i0, v0), (i1, v1) = chain[-2:]
            if (v1 - v0) * (i - i0) < (v - v0) * (i1 - i0):
                break
            chain.pop()
        chain.append((i, v))
    out = []
    for (i0, v0), (i1, v1) in zip(chain, chain[1:]):
        out += [v0 - (v0 - v1) * k // (i1 - i0) for k in range(i1 - i0)]
    return out + [chain[-1][1]]


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
    these intervals less the region; runs of a row at most ``2k`` apart
    join theirs, so only the ends of joined intervals are summed as +1/-1
    edges, into a buffer of about ``_BLOCK`` counts, one strip of rows at a
    time. The cumulative sum along each row is the coverage; the peak
    memory depends on the width, not the height.
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
    # gap[i]: the columns between runs i - 1 and i on one row; above every 2k across rows
    apart = np.where(row[1:] == row[:-1], start[1:] - stop[:-1], 2 * w + 1)
    gap = np.pad(apart, 1, constant_values=2 * w + 1)
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
                cut = gap[a : b + 1] > 2 * k[abs(dy)]
                buf[lo[a:b][cut[:-1]] + ((dy - y0) * span - k[abs(dy)])] += 1
                buf[hi[a:b][cut[1:]] + ((dy - y0) * span + k[abs(dy)])] -= 1
        np.cumsum(buf, out=buf)  # each row's edges sum to 0
        cover = buf.reshape(y1 - y0, span)[:, pad : pad + w]
        np.greater(cover, 0, out=band[y0:y1])
        np.greater(band[y0:y1], region[y0:y1], out=band[y0:y1])
    return band
