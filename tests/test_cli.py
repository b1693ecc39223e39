import builtins
import collections
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tmeseg
from tmeseg.cli import cli
from tmeseg.config import RunConfig
from tmeseg.container import (
    StackContainer,
    container_from_instances,
    container_from_labels,
    container_from_logits,
    load_stack,
    save_bundle,
    save_stack,
)
from tmeseg.raster import InstanceMap, LogitStack
from tmeseg.synth import build_bundle, random_scene
from tmeseg.taxonomy import default_taxonomy

from test_stream import _poke_f32

TAX = default_taxonomy()


@pytest.fixture()
def workspace(tmp_path):
    """Synthesized bundle with reference truth plus an aggregate run."""
    bundle_dir = tmp_path / "bundle"
    assert (
        cli(["synth", "--seed", "5", "--out-dir", str(bundle_dir), "--truth"]) == 0
    )
    pred = tmp_path / "pred.tmef"
    assert (
        cli(["aggregate", "--bundle", str(bundle_dir / "bundle.json"), "--out", str(pred)])
        == 0
    )
    return {
        "dir": tmp_path,
        "bundle": bundle_dir / "bundle.json",
        "nuclei": bundle_dir / "nuclei.tmef",
        "gt": bundle_dir / "truth_semantic.tmef",
        "gt_classes": bundle_dir / "truth.json",
        "pred": pred,
        "pred_classes": tmp_path / "pred.classes.json",
    }


def _full_map(tmp_path):
    # every class a nucleus can end up with: the vote outcomes (ids 2-11),
    # the two fallbacks, and the mitosis override
    names = [TAX.name_of(cid) for cid in range(2, 15)]
    path = tmp_path / "map.json"
    path.write_text(
        json.dumps({"eval_classes": names, "map": {n: n for n in names}})
    )
    return path


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


def test_synth_writes_bundle_truth_and_provenance(workspace):
    for name in ("bundle.json", "he.tmef", "tissue_logits.tmef", "cell_logits.tmef",
                 "nuclei.tmef", "truth_semantic.tmef", "truth.json", "provenance.json"):
        assert (workspace["bundle"].parent / name).exists(), name
    record = json.loads((workspace["bundle"].parent / "provenance.json").read_text())
    assert record["command"] == "synth"
    assert record["seed"] == 5 and record["kind"] == "random"
    assert record["config_sha256"]


def test_aggregate_output_matches_reference_truth(workspace, capsys):
    gt = load_stack(workspace["gt"]).planes
    pred = load_stack(workspace["pred"]).planes
    assert np.array_equal(gt, pred)
    truth = json.loads(workspace["gt_classes"].read_text())["classes"]
    got = json.loads(workspace["pred_classes"].read_text())["classes"]
    assert got == truth


def test_evaluate_semantic_only(workspace, capsys):
    report = workspace["dir"] / "report.json"
    code = cli(
        [
            "evaluate",
            "--gt", str(workspace["gt"]),
            "--pred", str(workspace["pred"]),
            "--out", str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dice" in out and "stroma" in out
    doc = json.loads(report.read_text())
    assert "semantic" in doc and "instance" not in doc
    # prediction equals truth, so every present class scores 1.0
    for vals in doc["semantic"].values():
        assert vals["dice"] in (1.0, 0.0) or vals["dice"] > 0.99


def test_evaluate_with_instance_protocol(workspace, capsys):
    report = workspace["dir"] / "report.json"
    code = cli(
        [
            "evaluate",
            "--gt", str(workspace["gt"]),
            "--pred", str(workspace["pred"]),
            "--map", str(_full_map(workspace["dir"])),
            "--nuclei", str(workspace["nuclei"]),
            "--gt-classes", str(workspace["gt_classes"]),
            "--out", str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mcc" in out
    doc = json.loads(report.read_text())
    assert "instance" in doc
    scored = [v for v in doc["instance"].values() if v["mcc"] is not None]
    assert scored and all(v["mcc"] == 1.0 for v in scored)


def test_count_command(workspace, capsys):
    out = workspace["dir"] / "counts.json"
    code = cli(
        [
            "count",
            "--mask", str(workspace["pred"]),
            "--classes", "lymphocyte,fibroblast",
            "--mean-area", "20",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["counts"]) == {"lymphocyte", "fibroblast"}
    for rec in doc["counts"].values():
        assert rec["area_estimate"] == rec["pixel_area"] / 20
    assert "components" in capsys.readouterr().out


def test_tme_command(workspace, capsys):
    out = workspace["dir"] / "tme.json"
    assert cli(["tme", "--mask", str(workspace["pred"]), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tme"]["mpp"] == 0.25  # taken from the container header
    assert "tumor cells:" in capsys.readouterr().out
    assert cli(
        ["tme", "--mask", str(workspace["pred"]), "--mpp", "1.0", "--out", str(out)]
    ) == 0
    assert json.loads(out.read_text())["tme"]["mpp"] == 1.0


def _count_opens(monkeypatch) -> collections.Counter:
    """Counts, while the test runs, the opens of each ``.tmef`` path."""
    opened = collections.Counter()
    real = builtins.open

    def counting(file, *args, **kwargs):
        if str(file).endswith(".tmef"):
            opened[str(file)] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    monkeypatch.setattr(io, "open", counting)
    return opened


@pytest.mark.parametrize("command", ["evaluate", "count", "tme"])
def test_each_input_file_is_read_once(workspace, monkeypatch, capsys, command):
    d = workspace["dir"]
    out = d / f"{command}.json"
    if command == "evaluate":
        tmef = [workspace["gt"], workspace["pred"], workspace["nuclei"]]
        sidecars = [_full_map(d), workspace["gt_classes"]]
        argv = ["evaluate", "--gt", str(tmef[0]), "--pred", str(tmef[1]),
                "--nuclei", str(tmef[2]), "--map", str(sidecars[0]),
                "--gt-classes", str(sidecars[1])]
    else:
        tmef, sidecars = [workspace["pred"]], []
        argv = [command, "--mask", str(tmef[0])]
    opened = _count_opens(monkeypatch)
    assert cli(argv + ["--out", str(out)]) == 0
    assert opened == {str(p): 1 for p in tmef}  # the digest comes from the load
    record = json.loads(out.with_suffix(".provenance.json").read_text())
    assert record["inputs"] == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in tmef + sidecars
    }


def test_info_command(workspace, capsys):
    assert cli(["info", str(workspace["pred"])]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["header"]["magic"] == "TMEF1"
    assert str(workspace["pred"]) in doc["provenance"]["inputs"]


# ---------------------------------------------------------------------------
# Postprocess
# ---------------------------------------------------------------------------


def _student_container(tmp_path, mpp=0.25):
    ids = tuple(TAX.ids)
    planes = np.full((len(ids), 8, 8), -1.0, dtype=np.float32)
    planes[TAX.resolve("stroma")] = 3.0
    planes[TAX.resolve("epithelial_tissue"), :4] = 5.0
    planes[TAX.resolve("lymphocyte"), 1:3, 1:3] = 6.0
    stack = LogitStack(ids, planes)
    path = tmp_path / "student.tmef"
    save_stack(container_from_logits(stack, mpp=mpp), path)
    return path


def test_postprocess_force(tmp_path, capsys):
    student = _student_container(tmp_path)
    out = tmp_path / "force.tmef"
    assert cli(["postprocess", "--student", str(student), "--mode", "force", "--out", str(out)]) == 0
    labels = load_stack(out).planes[0]
    assert (labels[1:3, 1:3] == TAX.resolve("lymphocyte")).all()
    assert (labels[5:] == TAX.resolve("stroma")).all()
    assert not (out.parent / "force.classes.json").exists()


def test_postprocess_panoptic(tmp_path):
    student = _student_container(tmp_path)
    nid = np.zeros((8, 8), np.int32)
    nid[1:3, 1:3] = 1
    nuclei_path = tmp_path / "nuclei.tmef"
    save_stack(container_from_instances(InstanceMap.from_ids(nid)), nuclei_path)
    out = tmp_path / "pan.tmef"
    code = cli(
        [
            "postprocess",
            "--student", str(student),
            "--mode", "panoptic",
            "--nuclei", str(nuclei_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    classes = json.loads((tmp_path / "pan.classes.json").read_text())["classes"]
    assert classes == {"1": TAX.resolve("lymphocyte")}
    labels = load_stack(out).planes[0]
    assert (labels[nid == 1] == TAX.resolve("lymphocyte")).all()


def test_postprocess_carries_the_student_scale(tmp_path, capsys):
    student = _student_container(tmp_path, mpp=0.5)
    out = tmp_path / "force.tmef"
    assert cli(["postprocess", "--student", str(student), "--mode", "force", "--out", str(out)]) == 0
    assert load_stack(out).mpp == 0.5
    report = tmp_path / "tme.json"
    assert cli(["tme", "--mask", str(out), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["tme"]["mpp"] == 0.5  # not the default


def test_tme_without_a_stated_mpp_uses_the_default(tmp_path, capsys):
    labels = np.full((16, 16), TAX.resolve("stroma"), np.uint8)
    mask = tmp_path / "mask.tmef"
    save_stack(container_from_labels(labels), mask)  # no mpp in the header
    assert load_stack(mask).mpp is None
    report = tmp_path / "tme.json"
    assert cli(["tme", "--mask", str(mask), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["tme"]["mpp"] == 0.25


def test_postprocess_panoptic_requires_nuclei(tmp_path, capsys):
    student = _student_container(tmp_path)
    out = tmp_path / "pan.tmef"
    code = cli(["postprocess", "--student", str(student), "--mode", "panoptic", "--out", str(out)])
    assert code == 1
    assert "requires --nuclei" in capsys.readouterr().err


def test_postprocess_force_rejects_nuclei(tmp_path, capsys):
    student = _student_container(tmp_path)
    out = tmp_path / "force.tmef"
    code = cli(["postprocess", "--student", str(student), "--mode", "force",
                "--nuclei", str(tmp_path / "nuclei.tmef"), "--out", str(out)])
    assert code == 1  # not silently ignored: force mode reads no nuclei
    assert "takes no --nuclei" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Exit codes and provenance
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path, capsys):
    assert cli(["not-a-command"]) == 1
    assert cli(["aggregate", "--bundle", "x.json"]) == 1  # missing --out
    gt = tmp_path / "gt.tmef"
    pred = tmp_path / "pred.tmef"
    save_stack(container_from_labels(np.zeros((4, 4), np.uint8)), gt)
    save_stack(container_from_labels(np.zeros((4, 4), np.uint8)), pred)
    code = cli(
        ["evaluate", "--gt", str(gt), "--pred", str(pred), "--map", "m.json",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 1  # partial instance flags are a usage error
    assert "together" in capsys.readouterr().err
    # checked before either label file is read or a table printed
    code = cli(
        ["evaluate", "--gt", str(tmp_path / "no-gt.tmef"), "--pred",
         str(tmp_path / "no-pred.tmef"), "--nuclei", "n.tmef", "--gt-classes", "c.json",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "together" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["postprocess", "--student", "s.tmef", "--mode", "force"],
        ["evaluate", "--gt", "gt.tmef", "--pred", "pred.tmef"],
        ["count", "--mask", "mask.tmef"],
        ["tme", "--mask", "mask.tmef"],
    ],
    ids=lambda argv: argv[0],
)
def test_config_is_refused_where_no_setting_is_read(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    out = tmp_path / "o.json"
    assert cli(argv + ["--out", str(out), "--config", str(cfg)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_taxonomy_option_is_gone(tmp_path, capsys):
    vocabulary = tmp_path / "x.json"
    vocabulary.write_text("{}")
    code = cli(
        ["aggregate", "--bundle", str(tmp_path / "b.json"), "--out",
         str(tmp_path / "o.tmef"), "--taxonomy", str(vocabulary)]
    )
    assert code == 1
    assert "unrecognized arguments: --taxonomy" in capsys.readouterr().err


def _small_mask(tmp_path):
    labels = np.full((16, 16), TAX.resolve("stroma"), np.uint8)
    labels[4:8, 4:8] = TAX.resolve("lymphocyte")
    path = tmp_path / "mask.tmef"
    save_stack(container_from_labels(labels, 0.25), path)
    return path


@pytest.mark.parametrize("mean_area", ["0", "-4", "nan"])
def test_count_bad_mean_area_exits_2(tmp_path, capsys, mean_area):
    out = tmp_path / "c.json"
    code = cli(
        ["count", "--mask", str(_small_mask(tmp_path)), "--mean-area", mean_area,
         "--out", str(out)]
    )
    assert code == 2
    assert "mean_area_per_cell" in capsys.readouterr().err
    assert not out.exists()


def test_tme_non_finite_mpp_exits_2(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = cli(["tme", "--mask", str(_small_mask(tmp_path)), "--mpp", "nan", "--out", str(out)])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_config_exits_2(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"background_threshold": NaN}')
    out = tmp_path / "o.tmef"
    code = cli(
        ["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 2
    assert "background_threshold must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [("[1]", "config must be a JSON object"), ('{"background_threshold": 200,\n', "Expecting")],
    ids=["list", "truncated"],
)
def test_malformed_config_exits_2_naming_the_file(workspace, tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o.tmef"
    code = cli(
        ["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        # former integer fields, now constants: the key is refused before its value is read
        {"mitosis_roi_radius_px": 30.5},
        {"carbon_rgb_sum_max": 40.5},
        {"mitosis_min_area_px": True},
        {"crop_px": 50.5, "stride_px": 40},
        {"stride_px": 40.5},
        {"background_threshold": 200.5},
    ],
    ids=lambda doc: next(iter(doc)),
)
def test_non_integer_config_field_exits_2(workspace, tmp_path, capsys, doc):
    key = next(iter(doc))
    expected = (
        f"{key} must be an integer" if key in RunConfig().to_json()
        else f"unknown config keys: ['{key}']"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.tmef"
    code = cli(
        ["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 2
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key",
    [
        "cc_connectivity",
        "workers",
        # the method's fixed values, now constants in tmeseg.config
        "blur_sigma",
        "mitosis_roi_radius_px",
        "carbon_rgb_sum_max",
        "mitosis_min_area_px",
        "margin_um",
        "mpp",
    ],
)
def test_removed_config_key_exits_2(workspace, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 8}))
    out = tmp_path / "o.tmef"
    code = cli(
        ["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_label_container_with_bad_mpp_exits_2(tmp_path, capsys):
    # raw bytes: StackContainer refuses to hold such an mpp
    header = json.dumps(
        {"magic": "TMEF1", "width": 4, "height": 4, "dtype": "u8", "channels": ["labels"],
         "mpp": "x"}
    ).encode()
    mask = tmp_path / "mask.tmef"
    mask.write_bytes(struct.pack("<I", len(header)) + header + bytes(16))
    out = tmp_path / "t.json"
    assert cli(["tme", "--mask", str(mask), "--out", str(out)]) == 2
    assert "mpp must be a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_data_errors_exit_2(workspace, tmp_path, capsys):
    assert cli(["aggregate", "--bundle", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.tmef")]) == 2
    # unknown class name in count
    assert cli(
        ["count", "--mask", str(workspace["pred"]), "--classes", "astrocyte",
         "--out", str(tmp_path / "c.json")]
    ) == 2
    err = capsys.readouterr().err
    assert "astrocyte" in err


def test_count_checks_class_names_before_reading_the_mask(tmp_path, capsys):
    code = cli(["count", "--mask", str(tmp_path / "missing.tmef"), "--classes", "bogus",
                "--out", str(tmp_path / "c.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown class name 'bogus'" in err and "missing.tmef" not in err
    assert not (tmp_path / "c.json").exists()


def test_aggregate_checks_workers_before_opening_the_bundle(tmp_path, capsys):
    # the manifest does not exist: the workers message shows nothing was opened
    code = cli(["aggregate", "--bundle", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o.tmef"), "--workers", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "workers must be >= 1" in err and "nope.json" not in err


def test_aggregate_data_error_leaves_no_thread(workspace, tmp_path, capsys):
    cell_path = workspace["bundle"].parent / "cell_logits.tmef"
    _poke_f32(cell_path, -1, np.nan)  # the last value the reader reaches
    before = threading.active_count()
    out = tmp_path / "o.tmef"
    code = cli(["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out),
                "--workers", "2"])
    assert code == 2
    assert "NaN or Inf" in capsys.readouterr().err
    assert threading.active_count() == before
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "he": 5},
        lambda doc: {**doc, "candidates": 5},
        lambda doc: {**doc, "candidates": [[1.0, 2.0]]},
        lambda doc: {**doc, "candidates": [[1.0, "2", 0.5]]},
        lambda doc: {**doc, "halo": [1]},
        lambda doc: {**doc, "mpp": "0.25"},
        lambda doc: {**doc, "mpp": -1},
        lambda doc: {**doc, "mpp": 0},
        lambda doc: {**doc, "halo": -3},
        lambda doc: {**doc, "halo": 2.7},
        lambda doc: b'{"he": "\xff.tmef"}',
        lambda doc: b'{"he": "he.tmef",',
    ],
    ids=["not-object", "part", "candidates", "short-candidate", "string-coord",
         "halo", "mpp", "mpp-negative", "mpp-zero", "halo-negative", "halo-float",
         "not-utf8", "not-json"],
)
def test_malformed_manifest_exits_2(workspace, tmp_path, capsys, edit):
    edited = edit(json.loads(workspace["bundle"].read_text()))
    raw = edited if isinstance(edited, bytes) else json.dumps(edited).encode()
    workspace["bundle"].write_bytes(raw)
    out = tmp_path / "o.tmef"
    assert cli(["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bundle manifest" in err
    assert str(workspace["bundle"]) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "shapes, named, message",
    [
        ({}, ("gt_classes", "map"), "nucleus 1: ground-truth class 'neutrophil' is unmapped"),
        ({"gt": (8, 8)}, ("gt", "pred"), "ground truth and prediction dimensions differ"),
        ({"gt": (6, 7), "pred": (6, 7)}, ("pred", "nuclei"),
         "prediction and instance raster dimensions differ"),
    ],
    ids=["unmapped", "gt-pred", "pred-nuclei"],
)
def test_unmapped_ground_truth_class_exits_2(tmp_path, capsys, shapes, named, message):
    nid = np.zeros((6, 6), np.int32)
    nid[2:4, 2:4] = 1
    paths = {
        "nuclei": tmp_path / "nuclei.tmef",
        "gt": tmp_path / "gt.tmef",
        "pred": tmp_path / "pred.tmef",
        "gt_classes": tmp_path / "gt.classes.json",
        "map": tmp_path / "map.json",
    }
    save_stack(container_from_instances(InstanceMap.from_ids(nid)), paths["nuclei"])
    for name in ("gt", "pred"):
        labels = np.zeros(shapes.get(name, (6, 6)), np.uint8)
        save_stack(container_from_labels(labels), paths[name])
    paths["gt_classes"].write_text(json.dumps({"classes": {"1": TAX.resolve("neutrophil")}}))
    paths["map"].write_text(
        json.dumps({"eval_classes": ["lymphocyte"], "map": {"lymphocyte": "lymphocyte"}})
    )
    out = tmp_path / "r.json"
    code = cli(
        [
            "evaluate",
            "--gt", str(paths["gt"]),
            "--pred", str(paths["pred"]),
            "--map", str(paths["map"]),
            "--nuclei", str(paths["nuclei"]),
            "--gt-classes", str(paths["gt_classes"]),
            "--out", str(out),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: {paths[named[0]]} and {paths[named[1]]}: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists() and not out.with_suffix(".provenance.json").exists()


def test_unmapped_nucleus_class_prints_nothing(workspace, capsys):
    # the aggregate output's nuclei carry classes besides lymphocyte
    d = workspace["dir"]
    narrow_map = d / "map.json"
    narrow_map.write_text(
        json.dumps({"eval_classes": ["lymphocyte"], "map": {"lymphocyte": "lymphocyte"}})
    )
    report = d / "r.json"
    argv = ["evaluate", "--gt", str(workspace["gt"]), "--pred", str(workspace["pred"]),
            "--nuclei", str(workspace["nuclei"]), "--map", str(narrow_map),
            "--gt-classes", str(workspace["gt_classes"]), "--out", str(report)]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert "is unmapped" in captured.err
    assert captured.out == ""  # no Dice table ahead of the error
    assert not report.exists()


def _instance_inputs(tmp_path) -> dict[str, Path]:
    """A 6x6 frame with one nucleus, id 1: nuclei, gt and pred containers."""
    nid = np.zeros((6, 6), np.int32)
    nid[2:4, 2:4] = 1
    paths = {name: tmp_path / f"{name}.tmef" for name in ("nuclei", "gt", "pred")}
    save_stack(container_from_instances(InstanceMap.from_ids(nid)), paths["nuclei"])
    labels = np.zeros((6, 6), np.uint8)
    save_stack(container_from_labels(labels), paths["gt"])
    save_stack(container_from_labels(labels), paths["pred"])
    return paths


_GOOD_MAP = {"eval_classes": ["lymphocyte"], "map": {"lymphocyte": "lymphocyte"}}
_GOOD_CLASSES = {"classes": {"1": TAX.resolve("lymphocyte")}}


@pytest.mark.parametrize(
    "flag, doc, message",
    [
        ("--gt-classes", [1], "'classes' must be an object"),
        ("--gt-classes", {"classes": [1, 2]}, "'classes' must be an object"),
        ("--gt-classes", {"classes": {"1": [3]}}, "nucleus '1' -> [3]: not"),
        ("--gt-classes", {"classes": {"1": True}}, "nucleus '1' -> True: not"),
        ("--gt-classes", {"classes": {"1": 99}}, "nucleus '1' -> 99: not"),
        ("--gt-classes", {"classes": {"one": 3}}, "nucleus 'one' -> 3: not"),
        ("--gt-classes", {"classes": {"-1": None}}, "nucleus '-1' -> None: not"),
        ("--gt-classes", b"{not json", "Expecting property name"),
        ("--map", [1], "'eval_classes' must be a list"),
        ("--map", {"eval_classes": 5}, "'eval_classes' must be a list"),
        ("--map", {"eval_classes": [["a"]]}, "'eval_classes' must be a list"),
        ("--map", {"eval_classes": ["a", "a"]}, "must be unique"),
        ("--map", {"eval_classes": ["a"], "map": []}, "'map' must be an object"),
        ("--map", {"eval_classes": ["a"], "map": {"lymphocyte": ["a"]}}, "not in eval_classes"),
        ("--map", {"eval_classes": ["a"], "map": {"nonsense": "a"}}, "unknown class name"),
    ],
)
def test_malformed_sidecar_exits_2_naming_the_file(tmp_path, capsys, flag, doc, message):
    paths = _instance_inputs(tmp_path)
    sidecars = {"--map": tmp_path / "map.json", "--gt-classes": tmp_path / "classes.json"}
    sidecars["--map"].write_text(json.dumps(_GOOD_MAP))
    sidecars["--gt-classes"].write_text(json.dumps(_GOOD_CLASSES))
    bad = sidecars[flag]
    bad.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    argv = ["evaluate", "--gt", str(paths["gt"]), "--pred", str(paths["pred"]),
            "--nuclei", str(paths["nuclei"]), "--out", str(tmp_path / "r.json")]
    for name, path in sidecars.items():
        argv += [name, str(path)]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # read before any label file, so no table
    assert f"error: {bad}: " in captured.err and message in captured.err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("evaluate", "--gt", "not a label raster container"),
        ("evaluate", "--pred", "not a label raster container"),
        ("evaluate", "--nuclei", "not an instance map container"),
        ("count", "--mask", "not a label raster container"),
        ("tme", "--mask", "not a label raster container"),
        ("postprocess", "--nuclei", "not an instance map container"),
        ("aggregate", "he", "not an RGB tile container"),  # a bundle part
        ("aggregate", "nuclei", "not an instance map container"),
    ],
)
def test_wrong_kind_of_container_exits_2_naming_the_file(tmp_path, capsys, command, flag, message):
    paths = _instance_inputs(tmp_path)
    (tmp_path / "map.json").write_text(json.dumps(_GOOD_MAP))
    (tmp_path / "classes.json").write_text(json.dumps(_GOOD_CLASSES))
    # an instance map where labels belong, or labels where anything else does
    wrong = tmp_path / "wrong.tmef"
    wrong.write_bytes(paths["nuclei" if flag in ("--gt", "--pred", "--mask") else "gt"].read_bytes())
    if command == "aggregate":  # the manifest names the wrong file for the part
        manifest = save_bundle(build_bundle(random_scene(3, max_nuclei=5)), tmp_path / "bundle")
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, flag: str(wrong)}))
        inputs = {"--bundle": manifest}
    else:
        inputs = {
            "evaluate": {"--gt": paths["gt"], "--pred": paths["pred"], "--nuclei": paths["nuclei"],
                         "--map": tmp_path / "map.json",
                         "--gt-classes": tmp_path / "classes.json"},
            "count": {"--mask": paths["gt"]},
            "tme": {"--mask": paths["gt"]},
            "postprocess": {"--student": _student_container(tmp_path), "--mode": "panoptic"},
        }[command]
        inputs[flag] = wrong
    out = tmp_path / "out.json"
    argv = [command, "--out", str(out)]
    for name, path in inputs.items():
        argv += [name, str(path)]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {wrong}: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists() and not out.with_suffix(".provenance.json").exists()


@pytest.mark.parametrize("value", [15, 200])
@pytest.mark.parametrize(
    "command, flag",
    [("evaluate", "--gt"), ("evaluate", "--pred"), ("count", "--mask"), ("tme", "--mask")],
)
def test_a_label_that_is_not_a_class_id_exits_2_naming_the_file(
    tmp_path, capsys, command, flag, value
):
    paths = _instance_inputs(tmp_path)
    (tmp_path / "map.json").write_text(json.dumps(_GOOD_MAP))
    (tmp_path / "classes.json").write_text(json.dumps(_GOOD_CLASSES))
    labels = np.zeros((6, 6), np.uint8)
    labels[2, 2] = value  # on the nucleus, where evaluate's instance protocol reads it
    bad = tmp_path / "bad.tmef"
    save_stack(container_from_labels(labels), bad)
    inputs = {
        "evaluate": {"--gt": paths["gt"], "--pred": paths["pred"], "--nuclei": paths["nuclei"],
                     "--map": tmp_path / "map.json", "--gt-classes": tmp_path / "classes.json"},
        "count": {},
        "tme": {},
    }[command]
    inputs[flag] = bad
    out = tmp_path / "out.json"
    argv = [command, "--out", str(out)]
    for name, path in inputs.items():
        argv += [name, str(path)]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {bad}: label {value} is not a class id" in captured.err
    assert captured.out == ""
    assert not out.exists() and not out.with_suffix(".provenance.json").exists()


def _bad_nuclei(path: Path, shape, case: str) -> None:
    """An instance map of ``shape`` with an id of 2**31, or malformed teacher types."""
    ids = np.zeros((1,) + shape, np.uint32)
    ids[0, 1, 1] = 2**31 if case == "id" else 1
    meta = {"teacher_types": [1]} if case == "types" else {}
    save_stack(StackContainer(("instance_ids",), ids, "u32", meta=meta), path)


@pytest.mark.parametrize("command", ["aggregate", "postprocess"])
@pytest.mark.parametrize(
    "case, message",
    [("id", "instance ids must be below 2**31"),
     ("types", "bad teacher_types in instance map meta")],
)
def test_bad_nuclei_exit_2_naming_the_nuclei_file(tmp_path, capsys, command, case, message):
    out = tmp_path / "out.tmef"
    if command == "aggregate":
        bundle = build_bundle(random_scene(3, max_nuclei=5))
        manifest = save_bundle(bundle, tmp_path / "bundle")
        nuclei = tmp_path / "bundle" / "nuclei.tmef"
        _bad_nuclei(nuclei, bundle.he.shape[:2], case)
        argv = ["aggregate", "--bundle", str(manifest)]
    else:
        nuclei = tmp_path / "nuclei.tmef"
        _bad_nuclei(nuclei, (8, 8), case)
        argv = ["postprocess", "--student", str(_student_container(tmp_path)),
                "--mode", "panoptic", "--nuclei", str(nuclei)]
    assert cli(argv + ["--out", str(out)]) == 2
    assert f"error: {nuclei}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_good_sidecars_pass_the_checks(tmp_path, capsys):
    paths = _instance_inputs(tmp_path)
    (tmp_path / "map.json").write_text(json.dumps(_GOOD_MAP))
    # a null class and an id absent from the raster are both allowed
    (tmp_path / "classes.json").write_text(
        json.dumps({"classes": {"1": TAX.resolve("lymphocyte"), "7": None}})
    )
    argv = ["evaluate", "--gt", str(paths["gt"]), "--pred", str(paths["pred"]),
            "--nuclei", str(paths["nuclei"]), "--map", str(tmp_path / "map.json"),
            "--gt-classes", str(tmp_path / "classes.json"), "--out", str(tmp_path / "r.json")]
    assert cli(argv) == 0
    assert json.loads((tmp_path / "r.json").read_text())["instance"]["lymphocyte"]["n_gt"] == 1
    capsys.readouterr()


def test_version_and_help_exit_0(capsys):
    assert cli(["--version"]) == 0
    assert cli(["--help"]) == 0
    assert cli(["aggregate", "--help"]) == 0
    capsys.readouterr()


def test_python_m_tmeseg_runs_the_cli():
    src = str(Path(tmeseg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "tmeseg", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert tmeseg.__version__ in proc.stdout + proc.stderr


def test_provenance_tracks_config_and_inputs(workspace, tmp_path, capsys):
    prov = json.loads((workspace["dir"] / "pred.provenance.json").read_text())
    assert prov["command"] == "aggregate"
    assert len(prov["inputs"]) == 5  # manifest + four parts
    assert str(workspace["bundle"]) in prov["inputs"]
    assert all(len(h) == 64 for h in prov["inputs"].values())

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"background_threshold": 200}))
    out2 = tmp_path / "pred2.tmef"
    assert cli(
        [
            "aggregate",
            "--bundle", str(workspace["bundle"]),
            "--out", str(out2),
            "--config", str(cfg),
        ]
    ) == 0
    prov2 = json.loads((tmp_path / "pred2.provenance.json").read_text())
    assert prov2["config_sha256"] != prov["config_sha256"]
    assert prov2["config"] == {"crop_px": 384, "stride_px": 320, "background_threshold": 200}
    # same inputs -> same input hashes
    assert prov2["inputs"] == prov["inputs"]
