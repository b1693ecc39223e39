#!/usr/bin/env python3
"""tmeseg benchmark: one workload per run, results on the last stdout line.

    python3 bench/run.py --workload slide|tiles|analyze --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Inputs are generated from --seed
under ``.bench_work/`` and removed when the run ends; a full result record
(host facts, samples, metrics by name and unit) goes to ``.bench_results/``.
The program is driven from outside: the ``tmeseg`` CLI as subprocesses with
``src`` on PYTHONPATH, and the library's public functions in a child
process. At most two processes compute at once: the tile references are
split over two children, and ``--workers 2`` forks two pool workers.

Workloads, and why each was chosen:

* ``slide``: ``tmeseg aggregate`` on a 4096² ``throughput_bundle`` (945 MB
  on disk, working set over 3x the L3), once with ``--workers 1`` and once
  with ``--workers 2`` per op. Stresses large container reads, validation,
  blur and grayscale, 169 overlapping tiling windows, the fork pool and
  provenance hashing. The background threshold is pinned, so the slide-wide
  Otsu is bypassed.
* ``tiles``: the library path of a label generator, one seeded 256²
  ``random_scene`` tile after another in one process: ``load_bundle`` ->
  ``aggregate`` (Otsu per tile) -> ``save_stack``. Stresses per-call
  overhead, Otsu, the per-candidate mitosis work and small-file I/O; it
  bypasses tiling, the pool and provenance hashing.
* ``analyze``: the downstream CLI commands on a 2048² slide: ``postprocess
  --mode panoptic``, ``evaluate``, ``count --mean-area 20``, ``tme`` per op.
  Stresses connected components, ``InstanceMap.from_ids``, the distance
  band, metrics, counting, u8/u32 reads and CLI start-up; it bypasses
  aggregation and tiling.

Every op's outputs are checked (see ``check_*``); a failed call or check
counts toward ``failed``, so ``failed / attempted`` is the error rate.

With ``--trace 0`` the last line carries the end-to-end metrics, measured
untraced and named alike on every workload: ``setup_s`` (fresh interpreter
-> import -> inputs loaded and validated, median of several), ``op_s``
(wall time of one op, CLI start-up included) and ``peak_rss_mb`` (largest
peak RSS of an op's process tree). The per-command figures
(``aggregate_w1_s``, ``tile_p95_ms``, ``tme_s``, ...; medians) and
``error_rate`` are printed above it and saved. With ``--trace 1`` a traced
run gives the per-module metrics (``LAYER_*``) and the tracing overhead.

``op_s`` is built from each piece's best time in the run: the sum over an
op's CLI calls of each call's fastest wall time (slide, analyze), or the
mean over the seeded tiles of each tile's fastest latency over the passes
(tiles). A co-tenant on a shared host only ever adds time, so the best of
several repeats is the steadiest estimate from run to run; the tiles that
make the mean are fixed by the seed, not by the timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = {"slide": 3, "tiles": 5, "analyze": 5}  # slide set-up takes ~3 s
MIN_OPS = {"slide": 1, "analyze": 2}  # untraced; a slide op takes ~15 s, analyze ~7 s
sys.path.insert(0, str(BENCH))
from child import TILES, sha256  # noqa: E402

ENV = {k: v for k, v in os.environ.items() if k != "TMESEG_WORKERS"}
ENV["PYTHONPATH"] = str(SRC)

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
}

# Per-module metrics: self seconds per op, summed over the listed spans.
LAYER_TIMES = {
    "container.load_s": (
        "container.load_stack", "container.load_bundle", "container.bundle_part_paths",
        "container.rgb_from_container", "container.logits_from_container",
        "container.labels_from_container", "container.instances_from_container",
    ),
    "container.save_s": (
        "container.save_stack", "container.save_bundle", "container.container_from_labels",
        "container.container_from_logits", "container.container_from_instances",
        "container.container_from_rgb", "container.container_from_mask",
    ),
    "aggregate.validate_s": ("aggregate.TeacherBundle.validate",),
    "aggregate.background_s": ("aggregate.background_mask",),
    "aggregate.tissue_s": ("aggregate.tissue_segmentation",),
    "aggregate.vote_s": ("aggregate.aggregate",),
    "aggregate.fallback_s": ("aggregate.fallback_rules",),
    "aggregate.mitosis_s": ("aggregate.detect_mitosis",),
    "aggregate.apply_mitosis_s": ("aggregate.apply_mitosis",),
    "raster.gaussian_smooth_s": ("raster.gaussian_smooth",),
    "raster.grayscale_s": ("raster.grayscale",),
    "raster.otsu_s": ("raster.otsu_threshold",),
    "raster.contours_s": ("raster.contours",),
    "raster.hull_s": ("raster.convex_hull", "raster.rasterize_hull"),
    "raster.connected_components_s": ("raster.connected_components",),
    "raster.from_ids_s": ("raster.InstanceMap.from_ids",),
    "raster.distance_band_s": ("raster.distance_band",),
    "tiling.crop_s": ("tiling.crop_bundle",),
    "tiling.claim_s": ("tiling._claimed_ids",),
    "tiling.stitch_s": ("tiling.tiled_aggregate",),
    "postprocess.panoptic_s": ("postprocess.panoptic_assign", "postprocess.as_student_logits"),
    "metrics.semantic_s": ("metrics.evaluate_semantic", "metrics.dice", "metrics.iou"),
    "metrics.instances_s": (
        "metrics.evaluate_instances", "metrics.instance_eval_units", "metrics.mcc_table",
        "metrics.mcc",
    ),
    "counting.count_record_s": (
        "counting.count_record", "counting.count_by_components", "counting.class_pixel_area",
    ),
    "tme.slide_metrics_s": ("tme.slide_metrics",),
    "cli.provenance_s": ("cli._provenance", "cli._sha256_file"),
}
# Computed counts per op: they repeat exactly for a given seed.
LAYER_CALLS = {
    "aggregate.calls": "aggregate.aggregate",
    "raster.grayscale_calls": "raster.grayscale",
    "raster.otsu_calls": "raster.otsu_threshold",
    "raster.hull_calls": "raster.convex_hull",
    "raster.from_ids_calls": "raster.InstanceMap.from_ids",
}
LAYER_COUNTERS = {
    "container.bytes_read": "B",
    "container.bytes_written": "B",
    "container.files_opened": "count",
    "aggregate.mitosis_candidates": "count",
    "aggregate.mitosis_regions": "count",
    "raster.px_blurred": "px",
    "tiling.windows": "count",
    "cli.bytes_hashed": "B",
}
# Derived in this file: (unit, computed count?)
LAYER_DERIVED = {
    "aggregate.mitosis_yield": ("ratio", True),
    "tiling.overlap_ratio": ("ratio", True),
    "tiling.speedup_w2": ("ratio", False),
    "tiling.worker_peak_rss_mb": ("MB", False),
    "cli.start_s": ("s", False),
    "trace.overhead_s": ("s", False),
}


class ChildError(RuntimeError):
    pass


def child(*args) -> None:
    """Run one child process to completion; raise with its stderr on failure."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise ChildError(f"child {args[:2]} failed:\n{proc.stderr[-2000:]}")


def time_setup(workload: str, work: Path) -> list[float]:
    """Fresh interpreter -> import tmeseg -> inputs loaded and validated."""
    samples = []
    for _ in range(SETUP_REPEATS[workload]):
        start = time.perf_counter()
        child("setup", workload, work)
        samples.append(time.perf_counter() - start)
    return samples


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# CLI ops (slide, analyze)
# ---------------------------------------------------------------------------


def cli_call(work: Path, argv: list[str], traced: bool) -> dict:
    """One ``tmeseg`` command through the launcher; wall time includes start-up."""
    report, trace = work / "call.json", work / "call.trace.json"
    for path in (report, trace):
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(report),
           str(trace) if traced else "-", "--", *argv]
    launched = time.monotonic()
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    wall = time.perf_counter() - start
    call = {"wall_s": wall, "ok": proc.returncode == 0, "stderr": proc.stderr[-2000:]}
    if report.exists():
        rep = read_json(report)
        call.update(
            start_s=rep["entered"] - launched,
            rss_mb=max(rep["self_kb"], rep["children_kb"]) / 1024,
            children_mb=rep["children_kb"] / 1024,
        )
    else:
        call["ok"] = False
    if traced and trace.exists():
        call["trace"] = read_json(trace)
    return call


def run_op(work: Path, calls: list[tuple[str, list[str]]], traced: set[str]) -> dict:
    done = {name: cli_call(work, argv, name in traced) for name, argv in calls}
    return {
        "calls": done,
        "wall_s": sum(c["wall_s"] for c in done.values()),
        "rss_mb": max(c.get("rss_mb", 0.0) for c in done.values()),
        "ok": all(c["ok"] for c in done.values()),
    }


def slide_calls(work: Path) -> list[tuple[str, list[str]]]:
    return [
        (f"aggregate_w{w}", ["aggregate", "--bundle", str(work / "bundle" / "bundle.json"),
                             "--out", str(work / "out" / f"w{w}.tmef"),
                             "--config", str(work / "config.json"), "--workers", str(w)])
        for w in (1, 2)
    ]


def check_slide(work: Path, op: dict, expect: dict, warm) -> bool:
    """Every call's label bytes and classes equal the full-frame result's,
    so the w1 and w2 outputs are byte-identical."""
    labels = [work / "out" / f"{call.split('_')[-1]}.tmef" for call in op["calls"]]
    classes = [path.with_suffix(".classes.json").read_bytes() for path in labels]
    return (
        all(sha256(path) == expect["label_sha256"] for path in labels)
        and json.loads(classes[0])["classes"] == expect["classes"]
        and len(set(classes)) == 1
    )


def analyze_calls(work: Path) -> list[tuple[str, list[str]]]:
    out = work / "out"
    pred = str(work / "pred.tmef")
    return [
        ("postprocess", ["postprocess", "--student", str(work / "student.tmef"),
                         "--mode", "panoptic", "--nuclei", str(work / "nuclei.tmef"),
                         "--out", str(out / "panoptic.tmef")]),
        ("evaluate", ["evaluate", "--gt", str(work / "gt.tmef"), "--pred", pred,
                      "--map", str(work / "map.json"), "--nuclei", str(work / "nuclei.tmef"),
                      "--gt-classes", str(work / "gt_classes.json"),
                      "--out", str(out / "eval.json")]),
        ("count", ["count", "--mask", pred, "--mean-area", "20", "--out", str(out / "count.json")]),
        ("tme", ["tme", "--mask", pred, "--out", str(out / "tme.json")]),
    ]


ANALYZE_OUTPUTS = ("panoptic.tmef", "panoptic.classes.json", "eval.json", "count.json", "tme.json")


def check_analyze(work: Path, op: dict, expect: dict, warm) -> bool:
    """Dice 1 on every class present; counts match ground truth; digests
    equal the warm-up op's."""
    out = work / "out"
    op["digests"] = {name: sha256(out / name) for name in ANALYZE_OUTPUTS}
    semantic = read_json(out / "eval.json")["semantic"]
    counts = read_json(out / "count.json")["counts"]
    panoptic = read_json(out / "panoptic.classes.json")["classes"]
    tme = read_json(out / "tme.json")["tme"]
    return (
        expect["pred_equals_gt"]
        and all(semantic[name]["dice"] == 1.0 for name in expect["present"])
        and all(counts[n]["component_count"] == k for n, k in expect["nucleus_counts"].items())
        and all(panoptic[g] == c for g, c in expect["panoptic_classes"].items())
        and tme["tumor_cell_count"] == expect["nucleus_counts"]["epithelial_cell_nucleus"]
        and (warm is None or op["digests"] == warm["digests"])
    )


def cli_workload(name: str, work: Path, seconds: float, trace: bool) -> dict:
    if name == "slide":
        calls, check, traced = slide_calls(work), check_slide, {"aggregate_w1"}
    else:
        calls, check = analyze_calls(work), check_analyze
        traced = {c for c, _ in calls}
    expect = read_json(work / "expect.json")

    def op(traced_calls, warm=None, run=calls):
        out = work / "out"  # fresh per op, so a failed call leaves nothing to check
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = run_op(work, run, traced_calls)
        try:
            result["ok"] = result["ok"] and check(work, result, expect, warm)
        except (OSError, KeyError, ValueError):
            result["ok"] = False
        if not result["ok"]:
            for call in result["calls"].values():
                if call["stderr"]:
                    sys.stderr.write(call["stderr"])
        return result

    # untimed: fills the page cache, settles imports. On slide the w2 call
    # alone does that (the bundle is read whole either way), at half the cost.
    warm = op(set(), run=calls[-1:] if name == "slide" else calls)
    # Ops run back to back while the next one, as long as the last, still
    # fits in the window, so a run's length does not jump by a whole op.
    ops, traced_ops = [], []
    least = 1 if trace else MIN_OPS[name]
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        ops.append(op(set(), warm))
        if trace:
            traced_ops.append(op(traced, warm))
        now = time.perf_counter()
        if len(ops) >= least and (now - start) + (now - began) > seconds:
            break
    every = [warm] + ops + traced_ops
    return {"warm": warm, "ops": ops, "traced_ops": traced_ops,
            "samples": len(traced_ops) if trace else len(ops),
            "attempted": len(every), "failed": sum(not o["ok"] for o in every)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def merge(summaries: list[dict]) -> dict:
    """Sum self times, call counts and counters of several trace summaries."""
    total = {"self_s": {}, "calls": {}, "counters": {}}
    for doc in summaries:
        for key, table in total.items():
            for name, value in doc[key].items():
                table[name] = table.get(name, 0) + value
    return total


def layer_metrics(per_op: list[dict], per: float = 1.0) -> dict:
    """Per-module metrics from merged per-op trace summaries (median over ops)."""
    values: dict[str, list[float]] = {}

    def add(name, value):
        values.setdefault(name, []).append(value)

    for doc in per_op:
        for name, spans in LAYER_TIMES.items():
            add(name, sum(doc["self_s"].get(s, 0.0) for s in spans) / per)
        for name, span in LAYER_CALLS.items():
            add(name, doc["calls"].get(span, 0) / per)
        counters = doc["counters"]
        for name in LAYER_COUNTERS:
            add(name, counters.get(name, 0) / per)
        cands = counters.get("aggregate.mitosis_candidates", 0)
        add("aggregate.mitosis_yield",
            counters.get("aggregate.mitosis_regions", 0) / cands if cands else 0.0)
        image = counters.get("tiling.image_px", 0)
        add("tiling.overlap_ratio", counters.get("tiling.window_px", 0) / image if image else 0.0)
    return {name: statistics.median(v) for name, v in values.items()}


def units() -> dict:
    out = {name: "s" for name in LAYER_TIMES}
    out.update({name: "count" for name in LAYER_CALLS})
    out.update(LAYER_COUNTERS)
    out.update({name: unit for name, (unit, _) in LAYER_DERIVED.items()})
    return out


def computed_names() -> set:
    return set(LAYER_CALLS) | set(LAYER_COUNTERS) | {
        n for n, (_, computed) in LAYER_DERIVED.items() if computed
    }


# Per-module metrics of layers a workload bypasses read 0, so that every
# workload reports every metric.


def cli_layers(name: str, res: dict) -> dict:
    traced_ops = res["traced_ops"]
    per_op = [merge([c["trace"] for c in o["calls"].values() if "trace" in c])
              for o in traced_ops]
    layers = layer_metrics(per_op)
    traced = {c for c in traced_ops[0]["calls"] if "trace" in traced_ops[0]["calls"][c]}

    def median_wall(ops, calls):
        return statistics.median(sum(o["calls"][c]["wall_s"] for c in calls) for o in ops)

    layers["trace.overhead_s"] = median_wall(traced_ops, traced) - median_wall(res["ops"], traced)
    layers["cli.start_s"] = statistics.median(
        sum(o["calls"][c].get("start_s", 0.0) for c in traced) for o in traced_ops
    )
    if name == "slide":
        w2 = [o["calls"]["aggregate_w2"] for o in res["ops"] + traced_ops]
        layers["tiling.speedup_w2"] = (
            median_wall(res["ops"], ["aggregate_w1"]) / statistics.median(c["wall_s"] for c in w2)
        )
        layers["tiling.worker_peak_rss_mb"] = statistics.median(c["children_mb"] for c in w2)
    else:
        layers["tiling.speedup_w2"] = 0.0
        layers["tiling.worker_peak_rss_mb"] = 0.0
    return layers


def cli_report(name: str, res: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = res["ops"]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": sum(min(o["calls"][c]["wall_s"] for o in ops) for c in ops[0]["calls"]),
        "peak_rss_mb": statistics.median(o["rss_mb"] for o in ops),
    }
    named = {f"{c}_s": (statistics.median(o["calls"][c]["wall_s"] for o in ops), "s")
             for c in ops[0]["calls"]}
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    return metrics, named


def tiles_workload(work: Path, seconds: float, trace: bool) -> dict:
    report = work / "tiles.json"
    child("tiles", work, seconds, int(trace), report)
    return read_json(report)


def tiles_report(res: dict, setup: list[float]) -> tuple[dict, dict]:
    lat = res["latencies"]  # whole passes over the TILES tiles, in order
    best = [min(lat[i::TILES]) for i in range(TILES)]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s": statistics.mean(best),
        "peak_rss_mb": res["self_kb"] / 1024,
    }
    named = {
        "tile_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "tile_p95_ms": (statistics.quantiles(lat, n=20, method="inclusive")[18] * 1e3, "ms"),
        "tiles_per_s": (len(lat) / sum(lat), "1/s"),
    }
    return metrics, named


def tiles_layers(res: dict) -> dict:
    layers = layer_metrics(res["summaries"], per=TILES)
    layers["trace.overhead_s"] = (
        statistics.median(res["traced_pass_s"]) - statistics.median(res["untraced_pass_s"])
    ) / TILES
    for name in ("tiling.speedup_w2", "tiling.worker_peak_rss_mb", "cli.start_s"):
        layers[name] = 0.0
    return layers


# ---------------------------------------------------------------------------
# Host facts and the run
# ---------------------------------------------------------------------------


def host_facts() -> dict:
    import numpy
    import scipy

    def cache(index):
        try:
            return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
        except OSError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def prepare(workload: str, work: Path, seed: int) -> None:
    if workload != "tiles":
        child("prepare", workload, work, seed)
        return
    # reference truth costs ~0.27 s a tile: split it over at most two CPUs
    n = min(2, os.cpu_count() or 1)
    procs = [
        subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), "prepare", "tiles", str(work), str(seed),
             str(k * TILES // n), str((k + 1) * TILES // n)],
            env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for k in range(n)
    ]
    errors = [p.communicate()[1] for p in procs]
    if any(p.returncode for p in procs):
        raise ChildError("tile preparation failed:\n" + "\n".join(errors)[-2000:])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        prepare(workload, work, seed)
        prepare_s = time.perf_counter() - started
        setup = time_setup(workload, work)
        if workload == "tiles":
            res = tiles_workload(work, seconds, trace)
            if trace:
                metrics, named = tiles_layers(res), {}
            else:
                metrics, named = tiles_report(res, setup)
        else:
            res = cli_workload(workload, work, seconds, trace)
            if trace:
                metrics, named = cli_layers(workload, res), {}
            else:
                metrics, named = cli_report(workload, res, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    named["setup_s"] = (statistics.median(setup), "s")
    named["error_rate"] = (res["failed"] / res["attempted"], "ratio")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "prepare_s": prepare_s, "setup_samples_s": setup,
        "attempted": res["attempted"], "failed": res["failed"], "samples": res["samples"],
        "metrics": metrics, "named": named, "raw": res,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("slide", "tiles", "analyze"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tmeseg" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no tmeseg sources under {SRC}\n")
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    unit_of = units() if args.trace else END_TO_END
    computed = computed_names()
    host = host_facts()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops attempted={out['attempted']} failed={out['failed']} "
          f"timed samples={out['samples']}")
    for name, (value, unit) in out["named"].items():
        print(f"  {name:<28} {value:.6g} {unit}")
    for name, value in out["metrics"].items():
        tag = " (computed)" if name in computed else ""
        print(f"  {name:<28} {value:.6g} {unit_of[name]}{tag}")

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    record = dict(out, host=host, units=unit_of, computed=sorted(computed & set(unit_of)))
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
