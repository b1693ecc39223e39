"""Tile iteration and the threaded tiled pipeline.

Windows of ``crop`` pixels advance by ``stride``; the final window clamps
to the image edge so coverage is complete. Each window owns a cell: on
each axis, from its origin to the next window's origin, or to the image
edge for the last window, so the cells partition the frame. Only the
Gaussian blur reads neighbouring pixels, so only the blur runs window by
window: each window blurs its cell plus a ``blur_radius`` margin and
writes the smoothed grayscale of its cell into one canvas, so every pixel
is blurred once, on a thread pool beside the thread that reduces the
bundle. Every later stage runs once on the whole frame, so tiled output
equals ``aggregate`` for any plan and any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import AggregationResult, _aggregate_smoothed, _reduced
from .config import RunConfig
from .raster import blur_radius, check_rgb_tile, gaussian_smooth, grayscale


@dataclass(frozen=True)
class TilePlan:
    crop: int = 384
    stride: int = 320

    def __post_init__(self):
        if self.crop < 1:
            raise ValueError("crop must be >= 1")
        if not 1 <= self.stride <= self.crop:
            raise ValueError("stride must be in [1, crop]")


@dataclass(frozen=True)
class Window:
    index: int
    y0: int
    x0: int
    height: int
    width: int


def axis_offsets(extent: int, crop: int, stride: int) -> list[int]:
    """Window start offsets along one axis, final window clamped."""
    if extent <= crop:
        return [0]
    offsets = list(range(0, extent - crop + 1, stride))
    if offsets[-1] + crop < extent:
        offsets.append(extent - crop)
    return offsets


def iterate_tiles(shape: tuple[int, int], plan: Optional[TilePlan] = None) -> list[Window]:
    """Row-major windows covering an (height, width) extent.

    Extents smaller than the crop yield a single window of the full
    extent (processed as one tile).
    """
    plan = plan or TilePlan()
    h, w = shape
    if h < 1 or w < 1:
        raise ValueError("extent must be at least 1x1")
    windows = []
    for y0 in axis_offsets(h, plan.crop, plan.stride):
        for x0 in axis_offsets(w, plan.crop, plan.stride):
            windows.append(
                Window(
                    index=len(windows),
                    y0=y0,
                    x0=x0,
                    height=min(plan.crop, h),
                    width=min(plan.crop, w),
                )
            )
    return windows


def owned_cells(windows: list[Window], shape: tuple[int, int]) -> list[tuple[slice, slice]]:
    """The (rows, cols) cell each window of ``iterate_tiles(shape, ...)`` owns.

    On each axis a cell runs from its window's origin to the next window's
    origin, or to the image edge for the last window; the cells partition
    the frame.
    """

    def ends(origins: set[int], extent: int) -> dict[int, int]:
        starts = sorted(origins)
        return dict(zip(starts, starts[1:] + [extent]))

    row_end = ends({win.y0 for win in windows}, shape[0])
    col_end = ends({win.x0 for win in windows}, shape[1])
    return [
        (slice(win.y0, row_end[win.y0]), slice(win.x0, col_end[win.x0]))
        for win in windows
    ]


# ---------------------------------------------------------------------------
# Tiled aggregation
# ---------------------------------------------------------------------------


def _blur_cell(he: np.ndarray, sigma: float, cell: tuple[slice, slice], gray: np.ndarray) -> None:
    """Write the smoothed grayscale of one owned cell into ``gray``.

    The cell is blurred with a ``blur_radius(sigma)`` margin, clamped to the
    image, so its pixels read the same neighbours as in a full-frame blur.
    """
    rows, cols = cell
    h, w = he.shape[:2]
    margin = blur_radius(sigma)
    y0, x0 = max(rows.start - margin, 0), max(cols.start - margin, 0)
    y1, x1 = min(rows.stop + margin, h), min(cols.stop + margin, w)
    smooth = gaussian_smooth(he[y0:y1, x0:x1], sigma)
    local = (slice(rows.start - y0, rows.stop - y0), slice(cols.start - x0, cols.stop - x0))
    gray[cell] = grayscale(smooth[local])


def tiled_aggregate(
    bundle,
    config: Optional[RunConfig] = None,
    plan: Optional[TilePlan] = None,
    workers: int = 1,
) -> AggregationResult:
    """``aggregate`` with the blur computed window by window.

    ``bundle`` is a ``TeacherBundle``, ``FusionInputs`` or an open
    ``container.BundleReader``. The owned cells are blurred on ``workers``
    threads as soon as ``bundle.he`` is known, while this thread reduces
    the bundle; each cell is written once into one grayscale canvas, on
    which the full-frame pipeline runs. The result equals ``aggregate``'s.
    """
    cfg = config or RunConfig()
    plan = plan or TilePlan(crop=cfg.crop_px, stride=cfg.stride_px)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    he = check_rgb_tile(bundle.he)
    shape = he.shape[:2]
    cells = owned_cells(iterate_tiles(shape, plan), shape)
    gray = np.empty(shape, dtype=np.uint8)
    pool = ThreadPoolExecutor(max_workers=min(workers, len(cells)))
    try:
        blurs = [pool.submit(_blur_cell, he, cfg.blur_sigma, cell, gray) for cell in cells]
        inputs = _reduced(bundle)
        for blur in blurs:
            blur.result()
    finally:
        pool.shutdown(cancel_futures=True)  # on error, pending cells never start
    return _aggregate_smoothed(inputs, gray, cfg)
