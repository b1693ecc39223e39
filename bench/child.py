"""The benchmark's child processes; ``run.py`` starts each and waits for it.

    child.py cli REPORT TRACE|- -- TMESEG_ARGS...   run the tmeseg CLI as a user does
    child.py setup WORKLOAD WORK                     load and validate a workload's inputs
    child.py prepare WORKLOAD WORK SEED [START STOP] generate inputs and expected outputs
    child.py tiles WORK SECONDS TRACE REPORT         the tiles workload's timed loop

``src`` must be on PYTHONPATH. Modules are fetched with ``importlib``
because ``tmeseg/__init__.py`` shadows ``tmeseg.aggregate`` with the
function of the same name.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SLIDE_SIZE = 4096
ANALYZE_SIZE = 2048
TILE_SIZE = 256
TILES = 64  # distinct tiles per seed; the timed loop cycles through them
MIN_TILES = 200  # leaves at least 10 samples beyond p95
PINNED = {"background_threshold": 200}
INVARIANT_BLOCK = 256


def _tm(name):
    return importlib.import_module(f"tmeseg.{name}")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_json(doc, path) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def _usage() -> dict:
    """Peak RSS of this process and of its largest waited-for child."""
    return {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


# ---------------------------------------------------------------------------
# CLI launcher
# ---------------------------------------------------------------------------


def run_cli(report: str, trace_out: str, argv: list[str]) -> int:
    """Run ``tmeseg.cli.entrypoint`` and report the peak RSS of its tree.

    RUSAGE_CHILDREN covers the fork workers of ``--workers 2``, which a
    wait on this process alone would not see.
    """
    import tmeseg.cli

    entered = time.monotonic()
    tracer = None
    if trace_out != "-":
        from tracer import install

        tracer = install()
    sys.argv = ["tmeseg", *argv]
    try:
        tmeseg.cli.entrypoint()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    if tracer is not None:
        tracer.dump(trace_out)
    _write_json(dict(_usage(), code=code, entered=entered), report)
    return code


# ---------------------------------------------------------------------------
# Set-up: what a user waits for before the first command can do any work
# ---------------------------------------------------------------------------


def setup(workload: str, work: Path) -> None:
    container = _tm("container")
    if workload == "slide":
        container.load_bundle(work / "bundle" / "bundle.json").validate()
    elif workload == "tiles":
        for i in range(TILES):
            container.load_bundle(work / "tiles" / str(i) / "bundle.json").validate()
    else:
        for name in ("student", "nuclei", "gt", "pred"):
            container.load_stack(work / f"{name}.tmef")


# ---------------------------------------------------------------------------
# Input generation and expected outputs
# ---------------------------------------------------------------------------


def _classes_doc(classes) -> dict:
    return {str(g): c for g, c in sorted(classes.items())}


def _check_invariants_blockwise(result) -> None:
    """``check_invariants`` over a partition of the frame into blocks.

    Both invariants are per pixel of a nucleus (class painted on every
    pixel; any mitosis pixel forces the mitotic class), so checking every
    block of a partition checks the whole frame. Whole-frame calls cost
    nuclei x pixels, minutes at 4096².
    """
    agg, raster = _tm("aggregate"), _tm("raster")
    h, w = result.semantic.shape
    for y in range(0, h, INVARIANT_BLOCK):
        for x in range(0, w, INVARIANT_BLOCK):
            block = (slice(y, y + INVARIANT_BLOCK), slice(x, x + INVARIANT_BLOCK))
            agg.AggregationResult(
                semantic=result.semantic[block],
                instances=raster.InstanceMap.from_ids(result.instances.ids[block]),
                classes=result.classes,
                mitosis=raster.InstanceMap(result.mitosis.ids[block]),
                provenance=result.provenance,
            ).check_invariants()


def prepare_slide(work: Path, seed: int) -> None:
    agg, container, config, synth = (
        _tm(n) for n in ("aggregate", "container", "config", "synth")
    )
    bundle = synth.throughput_bundle(SLIDE_SIZE, seed=seed)
    container.save_bundle(bundle, work / "bundle")
    _write_json(PINNED, work / "config.json")
    result = agg.aggregate(bundle, config.config_from_json(PINNED))
    _check_invariants_blockwise(result)
    expected = work / "expected.tmef"
    container.save_stack(container.container_from_labels(result.semantic, bundle.mpp), expected)
    _write_json(
        {"label_sha256": sha256(expected), "classes": _classes_doc(result.classes)},
        work / "expect.json",
    )


def prepare_tiles(work: Path, seed: int, start: int, stop: int) -> None:
    container, reference, synth = (_tm(n) for n in ("container", "reference", "synth"))
    for i in range(start, stop):
        scene = synth.random_scene(
            seed * TILES + i, TILE_SIZE, TILE_SIZE, max_nuclei=150, max_candidates=20
        )
        bundle = synth.build_bundle(scene)
        tile = work / "tiles" / str(i)
        container.save_bundle(bundle, tile)
        truth = reference.reference_aggregate(bundle)
        expected = tile / "expected.tmef"
        container.save_stack(container.container_from_labels(truth["semantic"], bundle.mpp), expected)
        _write_json(
            {"label_sha256": sha256(expected), "classes": _classes_doc(truth["classes"])},
            tile / "expect.json",
        )


def prepare_analyze(work: Path, seed: int) -> None:
    import numpy as np

    agg, container, config, postprocess, synth, taxonomy, tiling = (
        _tm(n)
        for n in ("aggregate", "container", "config", "postprocess", "synth", "taxonomy", "tiling")
    )
    tax = taxonomy.default_taxonomy()
    cfg = config.config_from_json(PINNED)
    bundle = synth.throughput_bundle(ANALYZE_SIZE, seed=seed)
    mpp = bundle.mpp
    container.save_stack(container.container_from_instances(bundle.nuclei, mpp), work / "nuclei.tmef")

    # prediction: the tiled path the aggregate CLI takes; ground truth: full frame
    plan = tiling.TilePlan(crop=cfg.crop_px, stride=cfg.stride_px)
    pred = tiling.tiled_aggregate(bundle, cfg, plan, workers=1)
    truth = agg.aggregate(bundle, cfg)
    container.save_stack(container.container_from_labels(pred.semantic, mpp), work / "pred.tmef")
    container.save_stack(container.container_from_labels(truth.semantic, mpp), work / "gt.tmef")
    _write_json({"classes": _classes_doc(truth.classes)}, work / "gt_classes.json")
    names = [tax.name_of(c) for c in range(2, tax.n_classes)]
    _write_json({"eval_classes": names, "map": {n: n for n in names}}, work / "map.json")

    # student logits: seeded noise, the ground-truth class 8 above the rest
    rng = np.random.default_rng(seed)
    gt = truth.semantic
    planes = rng.random((tax.n_classes,) + gt.shape, dtype=np.float32) - 4.0
    np.put_along_axis(
        planes, gt[None].astype(np.intp),
        np.take_along_axis(planes, gt[None].astype(np.intp), axis=0) + 8.0, axis=0,
    )
    student = container.StackContainer(tax.names, planes, "f32", mpp=mpp)
    del planes
    container.save_stack(student, work / "student.tmef")
    del student

    nucleus_ids = {tax.resolve(n): n for n in postprocess.NUCLEUS_CLASSES}
    counts = {n: 0 for n in postprocess.NUCLEUS_CLASSES}
    panoptic = {}
    for gid, cls in truth.classes.items():
        if cls in nucleus_ids:
            counts[nucleus_ids[cls]] += 1
            panoptic[str(gid)] = cls
    _write_json(
        {
            "pred_equals_gt": bool(np.array_equal(pred.semantic, truth.semantic)),
            "present": [tax.name_of(int(c)) for c in np.unique(gt)],
            "nucleus_counts": counts,
            "panoptic_classes": panoptic,
        },
        work / "expect.json",
    )


# ---------------------------------------------------------------------------
# The tiles workload: one tile after another in one process
# ---------------------------------------------------------------------------


def run_tiles(work: Path, seconds: float, trace: bool, report: str) -> None:
    agg, container = _tm("aggregate"), _tm("container")
    tiles = []
    for i in range(TILES):
        tile = work / "tiles" / str(i)
        expect = json.loads((tile / "expect.json").read_text(encoding="utf-8"))
        tiles.append((tile / "bundle.json", tile / "out.tmef", expect))

    def one(manifest, out, expect) -> tuple[float, bool]:
        start = time.perf_counter()
        try:
            bundle = container.load_bundle(manifest)
            result = agg.aggregate(bundle)
            container.save_stack(container.container_from_labels(result.semantic, bundle.mpp), out)
        except Exception:  # a failed tile is counted, and the loop goes on
            traceback.print_exc()
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        ok = sha256(out) == expect["label_sha256"] and _classes_doc(result.classes) == expect["classes"]
        return elapsed, ok

    def sweep() -> tuple[list[float], int]:
        lat, failed = [], 0
        for i, (manifest, out, expect) in enumerate(tiles):
            if tracer is not None:
                tracer.op = i
            elapsed, ok = one(manifest, out, expect)
            lat.append(elapsed)
            failed += not ok
        return lat, failed

    tracer = None
    warm, failed = sweep()  # untimed warm-up pass
    attempted = len(warm)
    doc = {}
    if trace:
        from tracer import install

        tracer = install()
        untraced, traced, summaries = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            # untraced passes keep the wrappers installed but inactive
            tracer.active = False
            lat, bad = sweep()
            untraced.append(sum(lat))
            tracer.active = True
            tracer.reset()
            lat_t, bad_t = sweep()
            traced.append(sum(lat_t))
            summaries.append(tracer.summary())
            attempted += len(lat) + len(lat_t)
            failed += bad + bad_t
        doc.update(untraced_pass_s=untraced, traced_pass_s=traced, summaries=summaries,
                   samples=len(traced))
    else:
        latencies = []
        start = time.perf_counter()
        while len(latencies) < MIN_TILES or time.perf_counter() - start < seconds:
            lat, bad = sweep()  # whole passes, so every tile weighs the same
            latencies += lat
            failed += bad
        doc.update(latencies=latencies, samples=len(latencies))
        attempted += len(latencies)
    doc.update(_usage(), attempted=attempted, failed=failed)
    _write_json(doc, report)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return run_cli(argv[1], argv[2], argv[4:])
    if mode == "setup":
        setup(argv[1], Path(argv[2]))
    elif mode == "prepare":
        workload, work, seed = argv[1], Path(argv[2]), int(argv[3])
        if workload == "slide":
            prepare_slide(work, seed)
        elif workload == "tiles":
            prepare_tiles(work, seed, int(argv[4]), int(argv[5]))
        else:
            prepare_analyze(work, seed)
    elif mode == "tiles":
        run_tiles(Path(argv[1]), float(argv[2]), argv[3] == "1", argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
