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
from tmeseg.container import (
    container_from_instances,
    container_from_logits,
    load_stack,
    save_stack,
)
from tmeseg.postprocess import NUCLEUS_CLASSES
from tmeseg.raster import InstanceMap, LogitStack
from tmeseg.taxonomy import default_taxonomy

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
    assert json.loads(report.read_text())["tme"]["mpp"] == 0.5  # not the config fallback


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
    from tmeseg.container import container_from_labels

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
    from tmeseg.container import container_from_labels

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


def test_non_finite_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"margin_um": NaN}')
    out = tmp_path / "t.json"
    code = cli(
        ["tme", "--mask", str(_small_mask(tmp_path)), "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2
    assert "margin_um must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o.tmef"
    code = cli(
        ["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out), "--config", str(cfg)]
    )
    assert code == 2
    assert f"{next(iter(doc))} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["cc_connectivity", "workers"])
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


def test_aggregate_data_error_leaves_no_thread(workspace, tmp_path, capsys):
    cell_path = workspace["bundle"].parent / "cell_logits.tmef"
    cell = load_stack(cell_path)
    cell.planes[-1, -1, -1] = np.nan  # the last value the reader reaches
    save_stack(cell, cell_path)
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
    ],
    ids=["not-object", "part", "candidates", "short-candidate", "string-coord",
         "halo", "mpp", "mpp-negative", "mpp-zero", "halo-negative", "halo-float"],
)
def test_malformed_manifest_exits_2(workspace, tmp_path, capsys, edit):
    doc = json.loads(workspace["bundle"].read_text())
    workspace["bundle"].write_text(json.dumps(edit(doc)))
    out = tmp_path / "o.tmef"
    assert cli(["aggregate", "--bundle", str(workspace["bundle"]), "--out", str(out)]) == 2
    assert "bundle manifest" in capsys.readouterr().err
    assert not out.exists()


def test_unmapped_ground_truth_class_exits_2(tmp_path, capsys):
    nid = np.zeros((6, 6), np.int32)
    nid[2:4, 2:4] = 1
    nuclei = tmp_path / "nuclei.tmef"
    save_stack(container_from_instances(InstanceMap.from_ids(nid)), nuclei)
    from tmeseg.container import container_from_labels

    labels = np.zeros((6, 6), np.uint8)
    gt = tmp_path / "gt.tmef"
    pred = tmp_path / "pred.tmef"
    save_stack(container_from_labels(labels), gt)
    save_stack(container_from_labels(labels), pred)
    gt_classes = tmp_path / "gt.classes.json"
    gt_classes.write_text(json.dumps({"classes": {"1": TAX.resolve("neutrophil")}}))
    narrow_map = tmp_path / "map.json"
    narrow_map.write_text(
        json.dumps({"eval_classes": ["lymphocyte"], "map": {"lymphocyte": "lymphocyte"}})
    )
    code = cli(
        [
            "evaluate",
            "--gt", str(gt),
            "--pred", str(pred),
            "--map", str(narrow_map),
            "--nuclei", str(nuclei),
            "--gt-classes", str(gt_classes),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
    assert "unmapped" in capsys.readouterr().err


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
    cfg.write_text(json.dumps({"blur_sigma": 3.0}))
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
    assert prov2["config"]["blur_sigma"] == 3.0
    # same inputs -> same input hashes
    assert prov2["inputs"] == prov["inputs"]
