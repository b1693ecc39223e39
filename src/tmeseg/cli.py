"""Command-line surface.

Subcommands: synth, aggregate, postprocess, evaluate, count, tme, info.
Exit codes: 0 success, 1 usage error (synopsis on stderr), 2 data error.
Every run that writes output also writes a JSON provenance record next to
it (package version, full config, SHA-256 of the config and of every
input file) so results stay attributable byte-for-byte. Only synth and
aggregate read a ``--config``; the other records hold the default config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .aggregate import aggregate
from .config import DEFAULT_MPP, RunConfig, config_from_json
from .container import (
    BundleReader,
    StudentReader,
    container_from_labels,
    load_instances,
    load_labels,
    save_bundle,
    save_stack,
    scan_stack,
)
from .counting import count_record
from .metrics import evaluate_instances, evaluate_semantic, format_table
from .postprocess import NUCLEUS_CLASSES, reduce_force, reduce_panoptic
from .raster import InstanceMap
from .taxonomy import VOCABULARY, UnknownClassError, class_map_from_json

SCHEMA_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _read_json(path: str, parse: Callable, digests: dict[str, str]):
    """``parse`` of a JSON sidecar, read once: its bytes are hashed into
    ``digests``, then decoded. A malformed file raises ``ValueError`` naming it."""
    raw = Path(path).read_bytes()
    digests[str(Path(path))] = hashlib.sha256(raw).hexdigest()
    try:
        return parse(json.loads(raw))
    except (ValueError, UnknownClassError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) else exc  # a KeyError's str() is quoted
        raise ValueError(f"{path}: {detail}") from None


def _compare(paths: tuple[str, str], check: Callable, *args):
    """``check(*args)``, where a ``ValueError`` names the two files it compared."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"{paths[0]} and {paths[1]}: {exc}") from None


def _gt_classes(doc) -> dict[int, int]:
    """The classed nuclei of a ``--gt-classes`` document, whose ``classes``
    maps nucleus ids, as integer strings, to a vocabulary class id or null."""
    classes = doc.get("classes") if isinstance(doc, dict) else None
    if not isinstance(classes, dict):
        raise ValueError("'classes' must be an object of nucleus id -> class id or null")
    for g, c in classes.items():
        # a bool is not a class id; null is no ground-truth class, and the nucleus sits out
        if not (g.isdecimal() and (c is None or type(c) is int and c in VOCABULARY.ids)):
            raise ValueError(f"nucleus {g!r} -> {c!r}: not a nucleus id -> class id or null")
    return {int(g): c for g, c in classes.items() if c is not None}


def _provenance(
    command: str,
    config: RunConfig,
    inputs: Mapping[str, str],
    outputs: Sequence[Path],
) -> dict:
    """The provenance record; ``inputs`` maps each input path to its SHA-256."""
    cfg_doc = config.to_json()
    cfg_bytes = json.dumps(cfg_doc, sort_keys=True).encode("utf-8")
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "config": cfg_doc,
        "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
        "inputs": dict(inputs),
        "outputs": [str(o) for o in outputs],
    }


def _provenance_path(out: Path) -> Path:
    return out.with_suffix(".provenance.json")


def _load_config(args) -> RunConfig:
    if args.config:  # read as a sidecar, not an input: provenance holds it
        return _read_json(args.config, config_from_json, {})
    return RunConfig()


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# reference, synth and tme are imported by the commands that use them, so the
# others start without them


def _cmd_synth(args) -> int:
    from .synth import build_bundle, random_scene

    config = _load_config(args)
    scene = random_scene(
        args.seed,
        height=args.height,
        width=args.width,
        max_nuclei=args.max_nuclei,
        max_candidates=args.max_candidates,
    )
    bundle = build_bundle(scene)
    out_dir = Path(args.out_dir)
    manifest = save_bundle(bundle, out_dir)
    outputs = [manifest] + sorted(out_dir.glob("*.tmef"))
    if args.truth:
        from .reference import reference_aggregate

        truth = reference_aggregate(bundle, config)
        truth_mask = out_dir / "truth_semantic.tmef"
        save_stack(container_from_labels(truth["semantic"], bundle.mpp), truth_mask)
        truth_json = out_dir / "truth.json"
        _write_json(
            {
                "schema_version": SCHEMA_VERSION,
                "classes": {str(g): c for g, c in truth["classes"].items()},
            },
            truth_json,
        )
        outputs += [truth_mask, truth_json]
    record = _provenance("synth", config, {}, outputs)
    record["seed"] = args.seed
    record["kind"] = "random"  # provenance schema v1 names the scene generator
    _write_json(record, out_dir / "provenance.json")
    print(f"wrote bundle {manifest}")
    return 0


def _cmd_aggregate(args) -> int:
    if args.workers < 1:  # before any input file is opened
        raise ValueError("workers must be >= 1")
    config = _load_config(args)
    # one pass over the input files; the blur runs while nuclei and logits are read
    with BundleReader(args.bundle) as reader:
        result = aggregate(reader, config, workers=args.workers)
    out = Path(args.out)
    save_stack(container_from_labels(result.semantic, reader.mpp), out)
    classes_path = out.with_suffix(".classes.json")
    _write_json(
        {
            "schema_version": SCHEMA_VERSION,
            "classes": {str(g): c for g, c in sorted(result.classes.items())},
            "rules": {
                str(g): d.rule for g, d in sorted(result.provenance.items())
            },
            "mitosis_regions": len(result.mitosis.instance_ids),
        },
        classes_path,
    )
    record = _provenance("aggregate", config, reader.digests, [out, classes_path])
    _write_json(record, _provenance_path(out))
    print(f"wrote {out} and {classes_path}")
    return 0


def _cmd_postprocess(args) -> int:
    if args.mode == "panoptic" and not args.nuclei:
        raise _UsageError("--mode panoptic requires --nuclei")
    if args.mode == "force" and args.nuclei:
        raise _UsageError("--mode force takes no --nuclei")
    # one pass over each input file: hashed, checked and reduced chunk by chunk
    with StudentReader(args.student, args.nuclei) as reader:
        if args.mode == "force":
            labels, doc = reduce_force(reader.blocks(), reader.shape), None
        else:
            labels, classes = reduce_panoptic(reader.blocks(), reader.nuclei())
            doc = {
                "schema_version": SCHEMA_VERSION,
                "classes": {str(g): c for g, c in sorted(classes.items())},
            }
    out = Path(args.out)
    save_stack(container_from_labels(labels, reader.mpp), out)
    outputs = [out]
    if doc is not None:
        classes_path = out.with_suffix(".classes.json")
        _write_json(doc, classes_path)
        outputs.append(classes_path)
    record = _provenance("postprocess", RunConfig(), reader.digests, outputs)
    record["mode"] = args.mode
    _write_json(record, _provenance_path(out))
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    instance_flags = [args.map, args.nuclei, args.gt_classes]
    if any(instance_flags) and not all(instance_flags):
        raise _UsageError("instance evaluation needs --map, --nuclei, and --gt-classes together")
    digests: dict[str, str] = {}
    if all(instance_flags):  # the JSON sidecars first: a malformed one prints nothing
        cmap = _read_json(args.map, class_map_from_json, digests)
        gt_classes = _read_json(args.gt_classes, _gt_classes, digests)
    gt, _, digests[str(Path(args.gt))] = load_labels(args.gt)
    pred, _, digests[str(Path(args.pred))] = load_labels(args.pred)

    semantic = _compare((args.gt, args.pred), evaluate_semantic, gt, pred, VOCABULARY.ids)
    report = {"schema_version": SCHEMA_VERSION, "semantic": semantic}
    rows = [
        [name, vals["dice"], vals["iou"]] for name, vals in semantic.items()
    ]
    tables = [format_table(["class", "dice", "iou"], rows)]

    if all(instance_flags):
        nuclei, digests[str(Path(args.nuclei))] = load_instances(args.nuclei)
        # nuclei marked null carry no ground-truth class; they sit out
        _, _, slot, gids = nuclei.pixel_groups()
        kept = np.isin(gids, list(gt_classes))[slot]
        if not kept.all():
            nuclei = InstanceMap.from_pixels(nuclei.shape, nuclei.index[kept], gids[slot][kept])
        # rasters that do not match, else a ground-truth class the map leaves out
        same = pred.shape == nuclei.shape
        pair = (args.gt_classes, args.map) if same else (args.pred, args.nuclei)
        instance = _compare(pair, evaluate_instances, nuclei, gt_classes, pred, cmap)
        report["instance"] = instance
        rows = [
            [name, vals["mcc"], vals["n_gt"]] for name, vals in instance.items()
        ]
        tables.append(format_table(["class", "mcc", "n_gt"], rows))

    # printed once every nucleus has passed the map: a data error prints nothing
    print("\n\n".join(tables))
    out = Path(args.out)
    _write_json(report, out)
    record = _provenance("evaluate", RunConfig(), digests, [out])
    _write_json(record, _provenance_path(out))
    return 0


def _cmd_count(args) -> int:
    digests: dict[str, str] = {}
    names = (
        [n.strip() for n in args.classes.split(",") if n.strip()]
        if args.classes
        else list(NUCLEUS_CLASSES)
    )
    cids = [VOCABULARY.resolve(name) for name in names]
    mask, _, digests[str(Path(args.mask))] = load_labels(args.mask)
    records = {}
    for cid in cids:
        rec = count_record(mask, cid, args.mean_area)
        records[VOCABULARY.name_of(cid)] = {
            "class_id": cid,
            "component_count": rec.component_count,
            "pixel_area": rec.pixel_area,
            "area_estimate": rec.area_estimate,
        }
    out = Path(args.out)
    _write_json({"schema_version": SCHEMA_VERSION, "counts": records}, out)
    rows = [
        [n, r["component_count"], r["pixel_area"]] for n, r in records.items()
    ]
    print(format_table(["class", "components", "pixels"], rows))
    record = _provenance("count", RunConfig(), digests, [out])
    _write_json(record, _provenance_path(out))
    return 0


def _cmd_tme(args) -> int:
    from .tme import slide_metrics

    digests: dict[str, str] = {}
    mask, mask_mpp, digests[str(Path(args.mask))] = load_labels(args.mask)
    mpp = args.mpp if args.mpp is not None else mask_mpp
    metrics = slide_metrics(mask, DEFAULT_MPP if mpp is None else mpp)
    out = Path(args.out)
    _write_json(
        {"schema_version": SCHEMA_VERSION, "tme": metrics.to_json()}, out
    )
    print(
        f"tumor cells: {metrics.tumor_cell_count}; "
        f"margin band: {metrics.band_area_mm2:.6f} mm^2"
    )
    record = _provenance("tme", RunConfig(), digests, [out])
    _write_json(record, _provenance_path(out))
    return 0


def _cmd_info(args) -> int:
    header, digest = scan_stack(args.path)
    doc = {
        "header": header,
        "provenance": {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "inputs": {str(Path(args.path)): digest},
        },
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tmeseg",
        description="Teacher-aggregation panoptic segmentation toolkit.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    sub = subs.add_parser("synth", help="generate a bundle")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--height", type=int, default=96)
    sub.add_argument("--width", type=int, default=96)
    sub.add_argument("--max-nuclei", type=int, default=20)
    sub.add_argument("--max-candidates", type=int, default=5)
    sub.add_argument(
        "--truth",
        action="store_true",
        help="also run the per-pixel reference and write ground truth",
    )
    sub.add_argument("--config", help="RunConfig JSON path")
    sub.set_defaults(func=_cmd_synth)

    sub = subs.add_parser(
        "aggregate", help="run the teacher-aggregation pipeline"
    )
    sub.add_argument("--bundle", required=True, help="bundle manifest JSON")
    sub.add_argument("--out", required=True, help="output label container")
    sub.add_argument("--workers", type=int, default=1, help="blur threads beside the reader")
    sub.add_argument("--config", help="RunConfig JSON path")
    sub.set_defaults(func=_cmd_aggregate)

    sub = subs.add_parser(
        "postprocess", help="student logits to labels"
    )
    sub.add_argument("--student", required=True, help="full-vocabulary logit container")
    sub.add_argument("--mode", choices=("force", "panoptic"), required=True)
    sub.add_argument("--nuclei", help="instance container (panoptic mode)")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_postprocess)

    sub = subs.add_parser("evaluate", help="score a prediction")
    sub.add_argument("--gt", required=True, help="ground-truth label container")
    sub.add_argument("--pred", required=True, help="predicted label container")
    sub.add_argument("--map", help="evaluation class map JSON")
    sub.add_argument("--nuclei", help="ground-truth instance container")
    sub.add_argument("--gt-classes", help="per-nucleus class JSON (aggregate output)")
    sub.add_argument("--out", required=True, help="report JSON")
    sub.set_defaults(func=_cmd_evaluate)

    sub = subs.add_parser("count", help="cell counts from a mask")
    sub.add_argument("--mask", required=True)
    sub.add_argument("--classes", help="comma-separated class names")
    sub.add_argument(
        "--mean-area",
        type=float,
        default=None,
        help="mean pixels per cell for area-based estimates",
    )
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("tme", help="slide-level TME metrics")
    sub.add_argument("--mask", required=True)
    sub.add_argument("--mpp", type=float, default=None, help="microns per pixel")
    sub.add_argument("--out", required=True)
    sub.set_defaults(func=_cmd_tme)

    sub = subs.add_parser("info", help="print a container header")
    sub.add_argument("path")
    sub.set_defaults(func=_cmd_info)

    return parser


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (None, 0) else int(exc.code)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # ContainerError and UnknownClassError land here too
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(cli(sys.argv[1:]))
