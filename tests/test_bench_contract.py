"""What the benchmark in ``bench/`` uses of the package, checked without
changing ``bench/``: its invariant check on an aggregation result, the
tracer's wrapping of the methods it times, and the ``tiling`` names it reads."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tmeseg.aggregate
from test_tiling import _InlinePool
from tmeseg import tiling
from tmeseg.aggregate import aggregate, tile_cells
from tmeseg.config import RunConfig
from tmeseg.synth import build_bundle, random_scene

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blockwise_invariant_check_accepts_an_aggregation_result():
    child = _bench_module("child")
    # 300 px is not a multiple of the check's block, so edge blocks are partial
    result = aggregate(build_bundle(random_scene(0, 300, 300, max_nuclei=60, max_candidates=12)))
    assert result.mitosis.instance_ids  # the mitosis half of the check has work
    child._check_invariants_blockwise(result)


def test_tiled_aggregate_runs_the_driver_with_the_plan(monkeypatch):
    # ``bench/child.py`` reads ``tiling.TilePlan`` and ``tiling.tiled_aggregate``
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    bands, blur = [], tmeseg.aggregate._blur_band

    def counting_blur(bundle, band, *canvases):
        bands.append(band)
        blur(bundle, band, *canvases)

    monkeypatch.setattr(tmeseg.aggregate, "_blur_band", counting_blur)
    cfg = RunConfig(background_threshold=200)
    bundle = build_bundle(random_scene(11, 100, 100, max_nuclei=200, max_candidates=20))
    shimmed = tiling.tiled_aggregate(bundle, cfg, tiling.TilePlan(crop=60, stride=50), workers=4)
    assert _InlinePool.sizes == [len(bands)] == [2]  # 2 x 2 cells, a band per row of them
    cells = [(rows, cols) for rows, spans in bands for cols in spans]
    assert cells == tile_cells((100, 100), RunConfig(crop_px=60, stride_px=50))
    full = aggregate(bundle, cfg)
    assert shimmed.semantic.tobytes() == full.semantic.tobytes()
    assert shimmed.classes == full.classes
    for got, want in zip(shimmed.provenance, full.provenance):
        assert np.array_equal(got, want)


def _run_traced(script: str) -> None:
    """Run ``script`` in a child process, where ``tracer.install()`` may
    rebind functions across the package; it fails by raising."""
    path = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_wraps_the_methods_it_times():
    _run_traced("""
import numpy as np
import tracer
from tmeseg.raster import InstanceMap
from tmeseg.synth import build_bundle, random_scene

recorder = tracer.install()
InstanceMap.from_ids(np.ones((2, 2), np.int32))
build_bundle(random_scene(1)).validate()  # the constructor's call, then this one
calls = recorder.summary()["calls"]
assert calls["raster.InstanceMap.from_ids"] >= 1, calls
assert calls["aggregate.TeacherBundle.validate"] == 2, calls
""")


def test_tracer_counts_mitosis_candidates_and_regions():
    # the per-layer mitosis metrics read these counters; a renamed or
    # bypassed detect_mitosis would leave them at 0
    _run_traced("""
import tracer

recorder = tracer.install()
from tmeseg.aggregate import aggregate
from tmeseg.synth import build_bundle, random_scene

bundle = build_bundle(random_scene(0, 300, 300, max_nuclei=60, max_candidates=12))
result = aggregate(bundle)
counters = recorder.summary()["counters"]
assert bundle.mitosis_candidates and result.mitosis.attrs
assert counters["aggregate.mitosis_candidates"] == len(bundle.mitosis_candidates), counters
assert counters["aggregate.mitosis_regions"] == len(result.mitosis.attrs), counters
""")


def test_tracer_records_the_fallback_and_mitosis_stages():
    # the per-layer metrics aggregate.fallback_s and aggregate.apply_mitosis_s
    # sum these spans; a stage that ``_fuse`` stops calling by its module
    # name would leave them at 0
    _run_traced("""
import tracer

recorder = tracer.install()
from tmeseg.aggregate import aggregate
from tmeseg.synth import build_bundle, random_scene

aggregate(build_bundle(random_scene(5)))
calls = recorder.summary()["calls"]
assert calls.get("aggregate.fallback_rules", 0) >= 1, calls
assert calls.get("aggregate.apply_mitosis", 0) >= 1, calls
""")


def test_the_benchmark_runs_on_small_inputs(tmp_path, monkeypatch):
    # each workload's own steps, at 300 px and 2 tiles: a name the benchmark
    # reads that the package no longer has fails here, not in a benchmark run
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts bench/ on it
    child, run = _bench_module("child"), _bench_module("run")
    child.SLIDE_SIZE = child.ANALYZE_SIZE = 300
    child.TILES = child.MIN_TILES = 2
    work = {name: tmp_path / name for name in ("slide", "tiles", "analyze")}
    for path in work.values():
        (path / "out").mkdir(parents=True)
    child.prepare_slide(work["slide"], 0)
    child.prepare_tiles(work["tiles"], 52, 0, 2)
    child.prepare_analyze(work["analyze"], 0)
    for name, path in work.items():
        child.setup(name, path)

    report = tmp_path / "tiles.json"
    child.run_tiles(work["tiles"], 0.0, False, str(report))
    assert run.read_json(report)["failed"] == 0

    for name, calls, check in (
        ("slide", run.slide_calls, run.check_slide),
        ("analyze", run.analyze_calls, run.check_analyze),
    ):
        path = work[name]
        op = run.run_op(path, calls(path), set())  # each call through run.cli_call
        assert op["ok"], [c["stderr"] for c in op["calls"].values()]
        assert check(path, op, run.read_json(path / "expect.json"), None), name


def test_the_benchmark_slide_runs_on_two_bands(tmp_path, monkeypatch):
    # at 700 px the default crop and stride cut 2 x 2 cells, so the slide's
    # own check covers the band pool, the positioned H&E reads and the H&E
    # hash, which the 300 px slide above, one cell, never starts
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts bench/ on it
    child, run = _bench_module("child"), _bench_module("run")
    child.SLIDE_SIZE = 700
    assert len(tile_cells((700, 700), RunConfig())) == 4
    work = tmp_path / "slide"
    (work / "out").mkdir(parents=True)
    child.prepare_slide(work, 0)
    op = run.run_op(work, run.slide_calls(work), set())
    assert op["ok"], [c["stderr"] for c in op["calls"].values()]
    assert run.check_slide(work, op, run.read_json(work / "expect.json"), None)
