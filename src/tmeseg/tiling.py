"""Tile cells and the threaded tiled pipeline.

On each axis, window origins advance by ``stride`` and the last one is
clamped so that a ``crop``-pixel window ends at the image edge. A cell
runs from one origin to the next, or to the image edge for the last, so
the cells partition the frame. Only the Gaussian blur reads neighbouring
pixels, so only the blur runs cell by cell: each cell is blurred with a
``BLUR_RADIUS`` margin and its smoothed grayscale is written into one
canvas, so every pixel is blurred once, on a thread pool beside the
thread that reduces the bundle. Every later stage runs once on the whole
frame, so tiled output equals ``aggregate`` for any plan and any worker
count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .aggregate import AggregationResult, _fuse
from .config import BLUR_RADIUS, RunConfig
from .raster import check_rgb_tile, gaussian_smooth, grayscale


@dataclass(frozen=True)
class TilePlan:
    crop: int = 384
    stride: int = 320

    def __post_init__(self):
        if self.crop < 1:
            raise ValueError("crop must be >= 1")
        if not 1 <= self.stride <= self.crop:
            raise ValueError("stride must be in [1, crop]")


def axis_offsets(extent: int, crop: int, stride: int) -> list[int]:
    """Window start offsets along one axis, final window clamped."""
    if extent <= crop:
        return [0]
    offsets = list(range(0, extent - crop + 1, stride))
    if offsets[-1] + crop < extent:
        offsets.append(extent - crop)
    return offsets


def tile_cells(shape: tuple[int, int], plan: TilePlan) -> list[tuple[slice, slice]]:
    """The row-major (rows, cols) cells of ``plan`` over an (height, width) frame.

    On each axis a cell runs from one window origin of ``axis_offsets`` to
    the next, or to the image edge for the last, so the cells partition the
    frame.
    """

    def spans(extent: int) -> list[slice]:
        starts = axis_offsets(extent, plan.crop, plan.stride)
        return [slice(a, b) for a, b in zip(starts, starts[1:] + [extent])]

    return [(rows, cols) for rows in spans(shape[0]) for cols in spans(shape[1])]


# ---------------------------------------------------------------------------
# Tiled aggregation
# ---------------------------------------------------------------------------


def _blur_cell(he: np.ndarray, cell: tuple[slice, slice], gray: np.ndarray) -> None:
    """Write the smoothed grayscale of one cell into ``gray``.

    The cell is blurred with a ``BLUR_RADIUS`` margin, clamped to the
    image, so its pixels read the same neighbours as in a full-frame blur.
    """
    rows, cols = cell
    h, w = he.shape[:2]
    y0, x0 = max(rows.start - BLUR_RADIUS, 0), max(cols.start - BLUR_RADIUS, 0)
    y1, x1 = min(rows.stop + BLUR_RADIUS, h), min(cols.stop + BLUR_RADIUS, w)
    smooth = gaussian_smooth(he[y0:y1, x0:x1])
    local = (slice(rows.start - y0, rows.stop - y0), slice(cols.start - x0, cols.stop - x0))
    gray[cell] = grayscale(smooth[local])


def tiled_aggregate(
    bundle,
    config: Optional[RunConfig] = None,
    plan: Optional[TilePlan] = None,
    workers: int = 1,
) -> AggregationResult:
    """``aggregate`` with the blur computed cell by cell.

    ``bundle`` is a ``TeacherBundle`` or an open ``container.BundleReader``.
    The cells are blurred on ``workers`` threads as soon as ``bundle.he`` is
    known, while this thread reduces the bundle; each cell is written once
    into one grayscale canvas, on which the full-frame pipeline runs. The
    result equals ``aggregate``'s.
    """
    cfg = config or RunConfig()
    plan = plan or TilePlan(crop=cfg.crop_px, stride=cfg.stride_px)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    he = check_rgb_tile(bundle.he)
    shape = he.shape[:2]
    cells = tile_cells(shape, plan)
    gray = np.empty(shape, dtype=np.uint8)
    pool = ThreadPoolExecutor(max_workers=min(workers, len(cells)))
    try:
        blurs = [pool.submit(_blur_cell, he, cell, gray) for cell in cells]
        inputs = bundle.reduce()
        for blur in blurs:
            blur.result()
    finally:
        pool.shutdown(cancel_futures=True)  # on error, pending cells never start
    return _fuse(inputs, gray, cfg)
