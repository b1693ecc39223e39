"""Command-line surface.

Subcommands: synth, aggregate, postprocess, evaluate, count, tme, info.
Exit codes: 0 success, 1 usage error (synopsis on stderr), 2 data error.
Every run that writes output also writes a JSON provenance record next to
it (package version, full config, SHA-256 of the config and of every
input file) so results stay attributable byte-for-byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import __version__
from .config import RunConfig, config_from_json
from .container import (
    BundleReader,
    StudentReader,
    container_from_labels,
    labels_from_container,
    load_hashed,
    instances_from_container,
    save_bundle,
    save_stack,
    scan_stack,
)
from .counting import count_record
from .metrics import evaluate_instances, evaluate_semantic, format_table
from .postprocess import NUCLEUS_CLASSES, reduce_force, reduce_panoptic
from .raster import InstanceMap
from .taxonomy import VOCABULARY, load_class_map

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


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _hashed(paths: Sequence[Path]) -> dict[str, str]:
    """The SHA-256 of each file, keyed by path as ``str``."""
    return {str(p): _sha256_file(Path(p)) for p in paths}


def _load(path: str, digests: dict[str, str]):
    """Load a TMEF1 file; its SHA-256, from the same read, goes into ``digests``."""
    container, digests[str(Path(path))] = load_hashed(path)
    return container


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
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            return config_from_json(json.load(fh))
    return RunConfig()


def _write_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# reference, synth, tiling and tme are imported by the commands that use them,
# so the others start without them


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
    from .tiling import tiled_aggregate

    config = _load_config(args)
    # one pass over the input files; the blur runs while nuclei and logits are read
    with BundleReader(args.bundle) as reader:
        result = tiled_aggregate(reader, config, workers=args.workers)
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
    config = _load_config(args)
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
    record = _provenance("postprocess", config, reader.digests, outputs)
    record["mode"] = args.mode
    _write_json(record, _provenance_path(out))
    print(f"wrote {out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    digests: dict[str, str] = {}
    gt = labels_from_container(_load(args.gt, digests))
    pred = labels_from_container(_load(args.pred, digests))

    semantic = evaluate_semantic(gt, pred, VOCABULARY.ids)
    report = {"schema_version": SCHEMA_VERSION, "semantic": semantic}
    rows = [
        [name, vals["dice"], vals["iou"]] for name, vals in semantic.items()
    ]
    print(format_table(["class", "dice", "iou"], rows))

    if args.map and args.nuclei and args.gt_classes:
        cmap = load_class_map(args.map)
        nuclei = instances_from_container(_load(args.nuclei, digests))
        with open(args.gt_classes, "r", encoding="utf-8") as fh:
            classes_doc = json.load(fh)
        gt_classes = {
            int(g): c
            for g, c in classes_doc.get("classes", {}).items()
            if c is not None
        }
        # nuclei marked null carry no ground-truth class; they sit out
        unlabeled = [g for g in nuclei.instance_ids if g not in gt_classes]
        if unlabeled:
            ids = nuclei.ids.copy()
            ids[np.isin(ids, unlabeled)] = 0
            nuclei = InstanceMap.from_ids(ids)
        instance = evaluate_instances(nuclei, gt_classes, pred, cmap)
        report["instance"] = instance
        digests.update(_hashed([Path(args.map), Path(args.gt_classes)]))
        rows = [
            [name, vals["mcc"], vals["n_gt"]] for name, vals in instance.items()
        ]
        print()
        print(format_table(["class", "mcc", "n_gt"], rows))
    elif args.map or args.nuclei or args.gt_classes:
        raise _UsageError(
            "instance evaluation needs --map, --nuclei, and --gt-classes together"
        )

    out = Path(args.out)
    _write_json(report, out)
    record = _provenance("evaluate", config, digests, [out])
    _write_json(record, _provenance_path(out))
    return 0


def _cmd_count(args) -> int:
    config = _load_config(args)
    digests: dict[str, str] = {}
    mask = labels_from_container(_load(args.mask, digests))
    names = (
        [n.strip() for n in args.classes.split(",") if n.strip()]
        if args.classes
        else list(NUCLEUS_CLASSES)
    )
    records = {}
    for name in names:
        cid = VOCABULARY.resolve(name)
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
    record = _provenance("count", config, digests, [out])
    _write_json(record, _provenance_path(out))
    return 0


def _cmd_tme(args) -> int:
    from .tme import slide_metrics

    config = _load_config(args)
    digests: dict[str, str] = {}
    container = _load(args.mask, digests)
    mask = labels_from_container(container)
    mpp = args.mpp if args.mpp is not None else container.mpp
    if mpp is None:
        mpp = config.mpp
    metrics = slide_metrics(mask, mpp, margin_um=config.margin_um)
    out = Path(args.out)
    _write_json(
        {"schema_version": SCHEMA_VERSION, "tme": metrics.to_json()}, out
    )
    print(
        f"tumor cells: {metrics.tumor_cell_count}; "
        f"margin band: {metrics.band_area_mm2:.6f} mm^2"
    )
    record = _provenance("tme", config, digests, [out])
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

    def common(sub):
        sub.add_argument("--config", help="RunConfig JSON path")

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
    common(sub)
    sub.set_defaults(func=_cmd_synth)

    sub = subs.add_parser(
        "aggregate", help="run the teacher-aggregation pipeline"
    )
    sub.add_argument("--bundle", required=True, help="bundle manifest JSON")
    sub.add_argument("--out", required=True, help="output label container")
    sub.add_argument("--workers", type=int, default=1, help="blur threads beside the reader")
    common(sub)
    sub.set_defaults(func=_cmd_aggregate)

    sub = subs.add_parser(
        "postprocess", help="student logits to labels"
    )
    sub.add_argument("--student", required=True, help="full-vocabulary logit container")
    sub.add_argument("--mode", choices=("force", "panoptic"), required=True)
    sub.add_argument("--nuclei", help="instance container (panoptic mode)")
    sub.add_argument("--out", required=True)
    common(sub)
    sub.set_defaults(func=_cmd_postprocess)

    sub = subs.add_parser("evaluate", help="score a prediction")
    sub.add_argument("--gt", required=True, help="ground-truth label container")
    sub.add_argument("--pred", required=True, help="predicted label container")
    sub.add_argument("--map", help="evaluation class map JSON")
    sub.add_argument("--nuclei", help="ground-truth instance container")
    sub.add_argument("--gt-classes", help="per-nucleus class JSON (aggregate output)")
    sub.add_argument("--out", required=True, help="report JSON")
    common(sub)
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
    common(sub)
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("tme", help="slide-level TME metrics")
    sub.add_argument("--mask", required=True)
    sub.add_argument("--mpp", type=float, default=None, help="microns per pixel")
    sub.add_argument("--out", required=True)
    common(sub)
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
