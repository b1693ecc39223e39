import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tmeseg.tiling
from tmeseg.aggregate import aggregate
from tmeseg.config import RunConfig
from tmeseg.raster import blur_radius, gaussian_smooth
from tmeseg.synth import build_bundle, random_scene
from tmeseg.tiling import (
    TilePlan,
    axis_offsets,
    tile_cells,
    tiled_aggregate,
)

STITCH_CFG = RunConfig(background_threshold=200)


# ---------------------------------------------------------------------------
# Cell geometry
# ---------------------------------------------------------------------------


def test_axis_offsets_reference_cases():
    assert axis_offsets(384, 384, 320) == [0]
    assert axis_offsets(704, 384, 320) == [0, 320]
    assert axis_offsets(768, 384, 320) == [0, 320, 384]  # clamped final window
    assert axis_offsets(100, 384, 320) == [0]
    assert axis_offsets(385, 384, 320) == [0, 1]


def test_axis_offsets_cover_every_pixel():
    for extent in (1, 5, 64, 383, 384, 385, 640, 1000):
        covered = np.zeros(extent, dtype=bool)
        for off in axis_offsets(extent, 384, 320):
            covered[off : off + 384] = True
        assert covered.all()


def test_tile_plan_validation():
    with pytest.raises(ValueError):
        TilePlan(crop=384, stride=0)
    with pytest.raises(ValueError):
        TilePlan(crop=384, stride=385)
    with pytest.raises(ValueError):
        TilePlan(crop=0)


def test_tile_cells_row_major_and_sized():
    """The cells of ``tile_cells`` partition the frame in row-major order."""
    cells = tile_cells((768, 704), TilePlan())
    rows = [slice(0, 320), slice(320, 384), slice(384, 768)]  # origins 0, 320, 384
    cols = [slice(0, 320), slice(320, 704)]  # origins 0, 320
    assert cells == [(r, c) for r in rows for c in cols]


def test_tile_cells_small_extent_single_cell():
    """An extent smaller than the crop is one cell of the full extent."""
    assert tile_cells((100, 90), TilePlan()) == [(slice(0, 100), slice(0, 90))]


# ---------------------------------------------------------------------------
# Tiled aggregation
# ---------------------------------------------------------------------------


def _assert_same_result(a, b):
    assert np.array_equal(a.semantic, b.semantic)
    assert a.classes == b.classes
    assert np.array_equal(a.mitosis.ids > 0, b.mitosis.ids > 0)


def _scene_bundle(seed, size):
    return build_bundle(random_scene(seed, size, size, max_nuclei=200, max_candidates=20))


def test_tiled_equals_full_frame_on_stitch_safe_scene():
    bundle = _scene_bundle(3, 768)
    full = aggregate(bundle, STITCH_CFG)
    tiled = tiled_aggregate(bundle, STITCH_CFG, TilePlan(), workers=1)
    _assert_same_result(full, tiled)
    rules = {d.rule for d in tiled.provenance.values()}
    assert rules <= {"vote", "fallback_epithelial", "fallback_fibroblast", "mitosis", "undefined"}


def test_tiled_result_independent_of_worker_count():
    bundle = _scene_bundle(7, 768)
    one = tiled_aggregate(bundle, STITCH_CFG, TilePlan(), workers=1)
    three = tiled_aggregate(bundle, STITCH_CFG, TilePlan(), workers=3)
    _assert_same_result(one, three)
    assert one.provenance.keys() == three.provenance.keys()


def test_workers_must_be_positive():
    bundle = _scene_bundle(5, 400)
    with pytest.raises(ValueError):
        tiled_aggregate(bundle, STITCH_CFG, workers=0)


def test_frame_within_one_cell_equals_full_frame():
    bundle = _scene_bundle(9, 320)
    res = tiled_aggregate(bundle, STITCH_CFG, TilePlan(), workers=4)
    full = aggregate(bundle, STITCH_CFG)
    _assert_same_result(full, res)


class _InlinePool:
    """A stand-in for ``ThreadPoolExecutor`` that records its size and runs
    each task when it is submitted."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_size_is_bounded_by_the_cells(monkeypatch):
    monkeypatch.setattr(tmeseg.tiling, "ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    bundle = _scene_bundle(11, 100)
    plan = TilePlan(crop=60, stride=50)  # 2 x 2 cells
    res = tiled_aggregate(bundle, STITCH_CFG, plan, workers=10**6)
    assert _InlinePool.sizes == [len(tile_cells((100, 100), plan))] == [4]
    _assert_same_result(aggregate(bundle, STITCH_CFG), res)


class _ReduceAfterFirstBlur:
    """A bundle whose ``reduce`` first waits, a few seconds at most, for the
    first cell to be blurred, and records whether it was."""

    def __init__(self, bundle, blurred: threading.Event):
        self.he = bundle.he
        self.bundle = bundle
        self.blurred = blurred
        self.waited = []

    def reduce(self):
        self.waited.append(self.blurred.wait(timeout=5))
        return self.bundle.reduce()


def test_blur_runs_while_the_bundle_is_reduced(monkeypatch):
    blurred = threading.Event()

    def signalling_smooth(img, sigma):
        out = gaussian_smooth(img, sigma)
        blurred.set()
        return out

    monkeypatch.setattr(tmeseg.tiling, "gaussian_smooth", signalling_smooth)
    bundle = _scene_bundle(13, 400)
    waiting = _ReduceAfterFirstBlur(bundle, blurred)
    res = tiled_aggregate(waiting, STITCH_CFG, TilePlan(), workers=1)
    assert waiting.waited == [True]
    _assert_same_result(aggregate(bundle, STITCH_CFG), res)


def test_threaded_blur_under_frequent_thread_switches():
    bundle = _scene_bundle(17, 200)
    plan = TilePlan(crop=24, stride=20)  # 100 cells, each written by one of 8 threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = tiled_aggregate(bundle, STITCH_CFG, plan, workers=8)
    finally:
        sys.setswitchinterval(interval)
    full = aggregate(bundle, STITCH_CFG)
    assert res.semantic.tobytes() == full.semantic.tobytes()
    assert res.classes == full.classes


@st.composite
def _tiling_cases(draw):
    height = draw(st.integers(32, 96))
    width = draw(st.integers(32, 96))
    crop = draw(st.integers(3, 112))
    stride = draw(st.integers((crop + 1) // 2, crop))
    threshold = draw(st.one_of(st.none(), st.integers(0, 255)))
    return (
        draw(st.integers(0, 10_000)),
        (height, width),
        TilePlan(crop, stride),
        RunConfig(background_threshold=threshold),
        draw(st.sampled_from((1, 2))),
    )


@settings(max_examples=30, deadline=None)
@given(_tiling_cases())
def test_tiled_equals_full_frame_for_any_plan(case):
    seed, (height, width), plan, cfg, workers = case
    scene = random_scene(seed, height, width, max_nuclei=40, max_candidates=8)
    bundle = build_bundle(scene)
    full = aggregate(bundle, cfg)
    tiled = tiled_aggregate(bundle, cfg, plan, workers=workers)
    assert tiled.semantic.tobytes() == full.semantic.tobytes()
    assert tiled.classes == full.classes
    assert np.array_equal(tiled.mitosis.ids, full.mitosis.ids)
    assert {g: d.rule for g, d in tiled.provenance.items()} == {
        g: d.rule for g, d in full.provenance.items()
    }
    tiled.check_invariants()


@settings(max_examples=30, deadline=None)
@given(_tiling_cases())
def test_each_pixel_is_blurred_in_one_owned_cell(case):
    seed, shape, plan, cfg, _ = case
    bundle = build_bundle(random_scene(seed, *shape, max_nuclei=10, max_candidates=2))
    cells = tile_cells(shape, plan)
    cover = np.zeros(shape, dtype=np.int64)
    for rows, cols in cells:
        cover[rows, cols] += 1
    assert (cover == 1).all()
    starts = [(rows.start, cols.start) for rows, cols in cells]
    assert starts == sorted(starts)  # row-major

    margin = blur_radius(cfg.blur_sigma)

    def extent(span, size):
        return min(span.stop + margin, size) - max(span.start - margin, 0)

    bound = sum(extent(rows, shape[0]) * extent(cols, shape[1]) for rows, cols in cells)
    blurred = []

    def counting_smooth(img, sigma):
        blurred.append(img.shape[0] * img.shape[1])
        return gaussian_smooth(img, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tmeseg.tiling.gaussian_smooth", counting_smooth)
        tiled_aggregate(bundle, cfg, plan, workers=1)
    assert len(blurred) == len(cells)
    assert sum(blurred) <= bound
