"""Tile iteration and the parallel tiled pipeline.

Windows of ``crop`` pixels advance by ``stride``; the final window clamps
to the image edge so coverage is complete. Only the Gaussian blur reads
neighbouring pixels, so only the blur runs window by window: each window
blurs its pixels plus a ``blur_radius`` margin and writes the smoothed
grayscale of its own pixels into one canvas. Every later stage runs once
on the whole frame, so tiled output equals ``aggregate`` for any plan and
any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Optional

import numpy as np

from .aggregate import AggregationResult, TeacherBundle, _aggregate_smoothed
from .config import RunConfig
from .raster import blur_radius, gaussian_smooth, grayscale
from .taxonomy import Taxonomy, default_taxonomy


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

    @property
    def slices(self) -> tuple[slice, slice]:
        return (
            slice(self.y0, self.y0 + self.height),
            slice(self.x0, self.x0 + self.width),
        )


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


# ---------------------------------------------------------------------------
# Tiled aggregation
# ---------------------------------------------------------------------------

# Shared state for forked workers (copy-on-write; nothing is pickled).
_SHARED: Optional[tuple] = None


def _run_window(idx: int) -> tuple[int, np.ndarray]:
    """Smoothed grayscale of one window's own pixels."""
    he, sigma, windows = _SHARED
    win = windows[idx]
    h, w = he.shape[:2]
    margin = blur_radius(sigma)
    y0, x0 = max(win.y0 - margin, 0), max(win.x0 - margin, 0)
    y1 = min(win.y0 + win.height + margin, h)
    x1 = min(win.x0 + win.width + margin, w)
    smooth = gaussian_smooth(he[y0:y1, x0:x1], sigma)
    cy, cx = win.y0 - y0, win.x0 - x0
    return idx, grayscale(smooth[cy : cy + win.height, cx : cx + win.width])


def tiled_aggregate(
    bundle: TeacherBundle,
    config: Optional[RunConfig] = None,
    plan: Optional[TilePlan] = None,
    workers: int = 1,
    taxonomy: Optional[Taxonomy] = None,
) -> AggregationResult:
    """``aggregate`` with the blur computed window by window.

    Fan-out uses forked processes sharing the H&E tile read-only. The
    windows' smoothed grayscale is assembled into one canvas, on which the
    full-frame pipeline runs; the result equals ``aggregate(bundle, config)``.
    """
    global _SHARED
    cfg = config or RunConfig()
    tax = taxonomy or default_taxonomy()
    plan = plan or TilePlan(crop=cfg.crop_px, stride=cfg.stride_px)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    bundle.validate(tax)
    windows = iterate_tiles((bundle.height, bundle.width), plan)

    _SHARED = (bundle.he, cfg.blur_sigma, windows)
    try:
        if workers == 1 or len(windows) == 1:
            results = map(_run_window, range(len(windows)))
        else:
            ctx = get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                results = list(pool.map(_run_window, range(len(windows))))
        gray = np.empty((bundle.height, bundle.width), dtype=np.uint8)
        for idx, core in results:
            gray[windows[idx].slices] = core
    finally:
        _SHARED = None
    return _aggregate_smoothed(bundle, gray, cfg, tax)
