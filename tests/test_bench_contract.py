"""What the benchmark in ``bench/`` uses of the package, checked without
changing ``bench/``: its invariant check on an aggregation result, and the
tracer's wrapping of the methods it times."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from tmeseg.aggregate import aggregate
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
InstanceMap.from_ids(np.ones((2, 2), np.int32)).validate()
build_bundle(random_scene(1)).validate()
calls = recorder.summary()["calls"]
assert calls["raster.InstanceMap.from_ids"] >= 1, calls
assert calls["aggregate.TeacherBundle.validate"] == 1, calls
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
