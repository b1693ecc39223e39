import dataclasses
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tmeseg.aggregate
from tmeseg.aggregate import RULES, TeacherBundle, aggregate, axis_offsets, tile_cells
from tmeseg.config import BLUR_RADIUS, RunConfig
from tmeseg.raster import gaussian_smooth
from tmeseg.reference import reference_aggregate
from tmeseg.synth import build_bundle, random_scene

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


def test_tile_cells_row_major_and_sized():
    """The cells of ``tile_cells`` partition the frame in row-major order."""
    cells = tile_cells((768, 704), RunConfig())
    rows = [slice(0, 320), slice(320, 384), slice(384, 768)]  # origins 0, 320, 384
    cols = [slice(0, 320), slice(320, 704)]  # origins 0, 320
    assert cells == [(r, c) for r in rows for c in cols]


def test_tile_cells_small_extent_single_cell():
    """An extent smaller than the crop is one cell of the full extent."""
    assert tile_cells((100, 90), RunConfig()) == [(slice(0, 100), slice(0, 90))]


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
    tiled = aggregate(bundle, STITCH_CFG, workers=1)
    _assert_same_result(full, tiled)
    rules = {RULES[r] for r in tiled.provenance.rule.tolist()}
    assert rules <= {"vote", "fallback_epithelial", "fallback_fibroblast", "mitosis", "undefined"}


def test_tiled_result_independent_of_worker_count():
    bundle = _scene_bundle(7, 768)
    one = aggregate(bundle, STITCH_CFG, workers=1)
    three = aggregate(bundle, STITCH_CFG, workers=3)
    _assert_same_result(one, three)
    assert np.array_equal(one.instances.gids, three.instances.gids)
    assert {len(a) for a in one.provenance + three.provenance} == {one.instances.gids.size}


def test_workers_must_be_positive():
    bundle = _scene_bundle(5, 400)
    with pytest.raises(ValueError):
        aggregate(bundle, STITCH_CFG, workers=0)


def test_frame_within_one_cell_equals_full_frame():
    bundle = _scene_bundle(9, 320)
    res = aggregate(bundle, STITCH_CFG, workers=4)
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


def test_pool_size_is_bounded_by_the_bands(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    bundle = _scene_bundle(11, 100)
    cfg = dataclasses.replace(STITCH_CFG, crop_px=60, stride_px=50)  # 2 x 2 cells
    res = aggregate(bundle, cfg, workers=10**6)
    assert len(tile_cells((100, 100), cfg)) == 4
    assert _InlinePool.sizes == [2]  # one task per row of cells
    _assert_same_result(aggregate(bundle, STITCH_CFG), res)


class _ReduceAfterFirstBlur:
    """A bundle whose ``reduce`` first waits, a few seconds at most, for the
    first cell to be blurred, and records whether it was; the rest of what
    ``aggregate`` reads (``shape``, ``mitosis_candidates``, ``rows``) is
    the wrapped bundle's."""

    def __init__(self, bundle, blurred: threading.Event):
        self.bundle = bundle
        self.blurred = blurred
        self.waited = []

    def __getattr__(self, name):
        return getattr(self.bundle, name)

    def reduce(self):
        self.waited.append(self.blurred.wait(timeout=5))
        return self.bundle.reduce()


def test_blur_runs_while_the_bundle_is_reduced(monkeypatch):
    blurred = threading.Event()

    def signalling_smooth(img):
        out = gaussian_smooth(img)
        blurred.set()
        return out

    monkeypatch.setattr(tmeseg.aggregate, "gaussian_smooth", signalling_smooth)
    bundle = _scene_bundle(13, 400)
    waiting = _ReduceAfterFirstBlur(bundle, blurred)
    res = aggregate(waiting, STITCH_CFG, workers=1)
    assert waiting.waited == [True]
    _assert_same_result(aggregate(bundle, STITCH_CFG), res)


def test_threaded_blur_under_frequent_thread_switches():
    bundle = _scene_bundle(17, 200)
    cfg = dataclasses.replace(STITCH_CFG, crop_px=24, stride_px=20)  # 100 cells, 8 threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = aggregate(bundle, cfg, workers=8)
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
        RunConfig(crop_px=crop, stride_px=stride, background_threshold=threshold),
        draw(st.sampled_from((1, 2))),
    )


@settings(max_examples=30, deadline=None)
@given(_tiling_cases())
def test_tiled_equals_full_frame_for_any_plan(case):
    seed, (height, width), cfg, workers = case
    scene = random_scene(seed, height, width, max_nuclei=40, max_candidates=8)
    bundle = build_bundle(scene)
    # the default 384 px crop is one cell over a frame of at most 96 px
    full = aggregate(bundle, RunConfig(background_threshold=cfg.background_threshold))
    tiled = aggregate(bundle, cfg, workers=workers)
    assert tiled.semantic.tobytes() == full.semantic.tobytes()
    assert tiled.classes == full.classes
    assert np.array_equal(tiled.mitosis.ids, full.mitosis.ids)
    assert np.array_equal(tiled.instances.gids, full.instances.gids)
    assert np.array_equal(tiled.provenance.rule, full.provenance.rule)
    tiled.check_invariants()


@settings(max_examples=30, deadline=None)
@given(_tiling_cases())
def test_each_pixel_is_blurred_in_one_owned_cell(case):
    seed, shape, cfg, _ = case
    bundle = build_bundle(random_scene(seed, *shape, max_nuclei=10, max_candidates=2))
    cells = tile_cells(shape, cfg)
    cover = np.zeros(shape, dtype=np.int64)
    for rows, cols in cells:
        cover[rows, cols] += 1
    assert (cover == 1).all()
    starts = [(rows.start, cols.start) for rows, cols in cells]
    assert starts == sorted(starts)  # row-major

    def extent(span, size):
        return min(span.stop + BLUR_RADIUS, size) - max(span.start - BLUR_RADIUS, 0)

    bound = sum(extent(rows, shape[0]) * extent(cols, shape[1]) for rows, cols in cells)
    blurred, read = [], []
    rows = TeacherBundle.rows

    def counting_smooth(img):
        blurred.append(img.shape[0] * img.shape[1])
        return gaussian_smooth(img)

    def counting_rows(self, name, top, bottom):
        if name == "he":  # the tissue contest reads its slabs too
            read.append((top, bottom))
        return rows(self, name, top, bottom)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tmeseg.aggregate.gaussian_smooth", counting_smooth)
        mp.setattr(TeacherBundle, "rows", counting_rows)
        aggregate(bundle, cfg, workers=1)
    assert len(blurred) == len(cells)
    assert sum(blurred) <= bound
    # each row of cells is one band, read once with its halo
    bands = sorted({rows.start: rows for rows, _ in cells}.values(), key=lambda r: r.start)
    halo = [(max(r.start - BLUR_RADIUS, 0), min(r.stop + BLUR_RADIUS, shape[0])) for r in bands]
    assert sorted(read) == halo


def test_one_cell_is_blurred_without_a_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-cell frame started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    bundle = _scene_bundle(19, 256)  # within the default 384 px crop
    res = aggregate(bundle, STITCH_CFG, workers=4)
    truth = reference_aggregate(bundle, STITCH_CFG)
    assert res.semantic.tobytes() == truth["semantic"].tobytes()
    assert res.classes == truth["classes"]
