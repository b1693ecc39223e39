"""The streamed postprocess: equal to the in-memory modes and to plain
argmax / per-nucleus sums over id-sorted planes, one pass per file, header
failures before any payload is allocated, and no student stack in memory."""

import hashlib
import importlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmeseg
import tmeseg.container
from tmeseg.cli import cli
from tmeseg.container import (
    ContainerError,
    StackContainer,
    StudentReader,
    container_from_instances,
    load_stack,
    save_stack,
)
from tmeseg.postprocess import (
    NON_NUCLEUS_IDS,
    NUCLEUS_IDS,
    SUBTYPE_IDS,
    force_mode,
    panoptic_assign,
    reduce_force,
    reduce_panoptic,
)
from tmeseg.raster import InstanceMap, LogitStack
from tmeseg.synth import throughput_bundle
from tmeseg.taxonomy import LEUKOCYTE, VOCABULARY

from test_stream import _LAUNCHER, _poke_f32, _traced_peak

N = VOCABULARY.n_classes


# ---------------------------------------------------------------------------
# Oracles: np.argmax and whole-plane sums over the planes sorted by class id
# ---------------------------------------------------------------------------


def _by_id(class_ids, planes) -> np.ndarray:
    return planes[np.argsort(np.asarray(class_ids))]


def _argmax_force(planes: np.ndarray) -> np.ndarray:
    labels = np.argmax(planes, axis=0).astype(np.uint8)
    at = labels == LEUKOCYTE
    labels[at] = SUBTYPE_IDS[np.argmax(planes[SUBTYPE_IDS][:, at], axis=0)]
    return labels


def _argmax_panoptic(planes: np.ndarray, nuclei: InstanceMap):
    labels = NON_NUCLEUS_IDS[np.argmax(planes[NON_NUCLEUS_IDS], axis=0)]
    rows, cols = np.divmod(nuclei.index, nuclei.shape[1])
    slot, gids = nuclei.slot, nuclei.gids
    sums = np.stack(
        [np.bincount(slot, weights=planes[c][rows, cols], minlength=gids.size) for c in NUCLEUS_IDS]
    )
    best = NUCLEUS_IDS[np.argmax(sums, axis=0)]
    labels[rows, cols] = best[slot]
    return labels, dict(zip(gids.tolist(), best.tolist()))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _student_file(path: Path, class_ids, planes, mpp=0.25) -> Path:
    names = tuple(VOCABULARY.name_of(c) for c in class_ids)
    save_stack(StackContainer(names, planes, "f32", mpp=mpp), path)
    return path


def _nuclei_file(path: Path, nuclei: InstanceMap) -> Path:
    save_stack(container_from_instances(nuclei), path)
    return path


def _random_inputs(seed: int):
    """A student stack in a random channel order and random nuclei.

    Even seeds draw integer logits, so ties are common, with zeros of both
    signs; odd seeds draw floats, so nucleus sums come close without tying.
    Half the pixels favour leukocyte, so force mode reassigns subtypes.
    """
    rng = np.random.default_rng(seed)
    h, w = rng.integers(5, 40, size=2)
    if seed % 2 == 0:
        planes = rng.integers(-2, 3, size=(N, h, w)).astype(np.float32)
        zeros = planes == 0
        planes[zeros & (rng.random(planes.shape) < 0.5)] = -0.0
    else:
        planes = rng.standard_normal((N, h, w)).astype(np.float32)
    planes[LEUKOCYTE] += np.where(rng.random((h, w)) < 0.5, 2.0, 0.0).astype(np.float32)
    order = rng.permutation(N)
    ids = np.zeros((h, w), dtype=np.int32)
    for gid in rng.choice(2**20, size=rng.integers(0, 12), replace=False) + 1:
        r, c = rng.integers(0, h), rng.integers(0, w)
        ids[r : r + rng.integers(1, 6), c : c + rng.integers(1, 6)] = gid
    return tuple(order.tolist()), planes[order], InstanceMap.from_ids(ids)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _streamed(student: Path, nuclei: Path = None):
    with StudentReader(student, nuclei) as reader:
        if nuclei is None:
            return reduce_force(reader.blocks(), reader.shape)
        return reduce_panoptic(reader.blocks(), reader.nuclei())


def _postprocess(student: Path, out: Path, nuclei: Path = None) -> int:
    argv = ["postprocess", "--student", str(student), "--out", str(out)]
    if nuclei is None:
        return cli(argv + ["--mode", "force"])
    return cli(argv + ["--mode", "panoptic", "--nuclei", str(nuclei)])


# ---------------------------------------------------------------------------
# Equality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(24))
def test_streamed_equals_in_memory_on_random_stacks(tmp_path, monkeypatch, seed):
    # small buffers, so chunks end mid-row and planes split unevenly
    monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", 4 * (7 + 13 * seed))
    class_ids, planes, nuclei = _random_inputs(seed)
    student = _student_file(tmp_path / "student.tmef", class_ids, planes)
    nuclei_path = _nuclei_file(tmp_path / "nuclei.tmef", nuclei)
    stack = LogitStack(class_ids, planes)  # in file order: not sorted by id
    sorted_planes = _by_id(class_ids, planes)

    force = force_mode(stack)
    assert force.dtype == np.uint8
    assert np.array_equal(force, _argmax_force(sorted_planes))
    assert np.array_equal(_streamed(student), force)
    assert not (force == LEUKOCYTE).any()

    labels, classes = panoptic_assign(stack, nuclei)
    want_labels, want_classes = _argmax_panoptic(sorted_planes, nuclei)
    assert labels.dtype == np.uint8
    assert np.array_equal(labels, want_labels)
    assert classes == want_classes
    streamed_labels, streamed_classes = _streamed(student, nuclei_path)
    assert np.array_equal(streamed_labels, labels)
    assert streamed_classes == classes

    out = tmp_path / "pan.tmef"
    assert _postprocess(student, out, nuclei_path) == 0
    assert np.array_equal(load_stack(out).planes[0], labels)
    doc = json.loads(out.with_suffix(".classes.json").read_text())
    assert doc["classes"] == {str(g): c for g, c in sorted(classes.items())}
    record = json.loads(out.with_suffix(".provenance.json").read_text())
    assert record["inputs"] == {str(p): _sha256(p) for p in (student, nuclei_path)}


def test_ties_go_to_the_lowest_id_in_any_channel_order(tmp_path):
    # every plane equal: each mode's lowest id wins, whatever the file order
    for order in (range(N), reversed(range(N))):
        class_ids = tuple(order)
        planes = np.zeros((N, 2, 3), dtype=np.float32)
        planes[::2] = -0.0
        student = _student_file(tmp_path / "s.tmef", class_ids, planes)
        nuclei = InstanceMap.from_ids(np.array([[0, 1, 1], [0, 0, 2]]))
        assert (_streamed(student) == 0).all()  # background
        labels, classes = _streamed(student, _nuclei_file(tmp_path / "n.tmef", nuclei))
        assert classes == {1: NUCLEUS_IDS[0], 2: NUCLEUS_IDS[0]}
        assert (labels[nuclei.ids == 0] == NON_NUCLEUS_IDS[0]).all()


@pytest.fixture(scope="module")
def slide(tmp_path_factory):
    """A 2048² student of integer logits, channels reversed, and the nuclei of
    ``throughput_bundle(2048)``."""
    work = tmp_path_factory.mktemp("student")
    nuclei = throughput_bundle(2048).nuclei
    rng = np.random.default_rng(5)
    planes = rng.integers(-4, 5, size=(N,) + nuclei.ids.shape, dtype=np.int8).astype(np.float32)
    class_ids = tuple(reversed(range(N)))
    student = _student_file(work / "student.tmef", class_ids, planes)
    return student, _nuclei_file(work / "nuclei.tmef", nuclei)


def test_streamed_equals_in_memory_on_throughput_bundle(slide):
    student, nuclei_path = slide
    container = load_stack(student)
    stack = LogitStack(tuple(VOCABULARY.resolve(c) for c in container.channels), container.planes)
    del container
    nuclei, _ = tmeseg.container.load_instances(nuclei_path)
    assert np.array_equal(_streamed(student), force_mode(stack))
    labels, classes = panoptic_assign(stack, nuclei)
    del stack
    streamed_labels, streamed_classes = _streamed(student, nuclei_path)
    assert np.array_equal(streamed_labels, labels)
    assert streamed_classes == classes


def test_streamed_postprocess_holds_no_student_stack(slide):
    student, nuclei = slide
    payload = N * 2048 * 2048 * 4
    # nuclei, two running-argmax planes and the label raster: ~0.2x here;
    # loading the student alone is 1.0x
    assert _traced_peak(lambda: _streamed(student, nuclei)) <= 0.35 * payload
    assert _traced_peak(lambda: _streamed(student)) <= 0.35 * payload


def test_cli_postprocess_peak_rss_below_the_student_file(slide, tmp_path):
    student, nuclei = slide
    src = str(Path(tmeseg.__file__).resolve().parent.parent)
    out = tmp_path / "pan.tmef"
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "tmeseg", "postprocess",
         "--student", str(student), "--mode", "panoptic", "--nuclei", str(nuclei),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    # the student file is 252 MB; a streamed run peaks near 80 MB
    assert int(proc.stdout) * 1024 < os.path.getsize(student)  # ru_maxrss is in KiB


def test_info_reads_one_chunk_at_a_time(slide, capsys):
    student, _ = slide
    peak = _traced_peak(lambda: cli(["info", str(student)]))
    doc = json.loads(capsys.readouterr().out)
    assert doc["header"] == load_stack(student).header()
    assert doc["provenance"]["inputs"] == {str(student): _sha256(student)}
    assert peak < 8 << 20  # the 4 MB buffer; the payload is 252 MB


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["force", "panoptic"])
@pytest.mark.parametrize("where,value", [(0, np.nan), (-1, np.inf)], ids=["first-nan", "last-inf"])
def test_every_student_value_is_checked_finite(tmp_path, monkeypatch, capsys, mode, where, value):
    monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", 4 * 50)
    class_ids, planes, nuclei = _random_inputs(3)
    student = _student_file(tmp_path / "student.tmef", class_ids, planes)
    _poke_f32(student, where, value)
    nuclei_path = _nuclei_file(tmp_path / "nuclei.tmef", nuclei) if mode == "panoptic" else None
    out = tmp_path / "out.tmef"
    assert _postprocess(student, out, nuclei_path) == 2
    assert "NaN or Inf" in capsys.readouterr().err
    assert not out.exists()


def test_in_memory_modes_reject_non_finite_logits():
    # the in-memory modes read a LogitStack: it refuses NaN when built and
    # cannot take one afterwards, so neither mode meets one
    class_ids, planes, nuclei = _random_inputs(3)
    bad = planes.copy()
    bad[-1, -1, -1] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        LogitStack(class_ids, bad)
    stack = LogitStack(class_ids, planes)
    with pytest.raises(ValueError, match="read-only"):
        stack.planes[-1, -1, -1] = np.nan
    assert force_mode(stack).shape == nuclei.shape
    assert panoptic_assign(stack, nuclei)[0].shape == nuclei.shape


def test_info_rejects_a_nan_payload(tmp_path, capsys):
    class_ids, planes, _ = _random_inputs(4)
    student = _student_file(tmp_path / "student.tmef", class_ids, planes)
    _poke_f32(student, -1, np.nan)
    assert cli(["info", str(student)]) == 2
    assert "NaN or Inf" in capsys.readouterr().err


def _sparse(path: Path, dtype: str, channels, height: int, width: int, **extra) -> Path:
    """A TMEF1 file of zeros whose payload is a hole: written in no time."""
    doc = {"magic": "TMEF1", "dtype": dtype, "channels": list(channels),
           "height": height, "width": width, **extra}
    header = json.dumps(doc, sort_keys=True).encode("utf-8")
    itemsize = 1 if dtype == "u8" else 4
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header)) + header)
        fh.truncate(4 + len(header) + len(channels) * height * width * itemsize)
    return path


NAMES = VOCABULARY.names


@pytest.mark.parametrize(
    "channels,nuclei_dims,message",
    [
        (NAMES[:-1], (1024, 1024), "missing ['mitotic_cell']"),
        (NAMES + ("stroma",), (1024, 1024), "channel names must be distinct"),
        (NAMES + ("lym",), (1024, 1024), "channels must be distinct"),  # lymphocyte twice
        (NAMES, (1024, 1023), "nuclei and logits dimensions differ"),  # names both files
    ],
    ids=["missing-class", "duplicated-channel", "duplicated-class", "nuclei-wrong-dims"],
)
def test_header_failures_exit_2_before_any_payload(tmp_path, capsys, channels, nuclei_dims, message):
    student = _sparse(tmp_path / "student.tmef", "f32", channels, 1024, 1024)  # 60 MB
    nuclei = _sparse(tmp_path / "nuclei.tmef", "u32", ("instance_ids",), *nuclei_dims)
    out = tmp_path / "out.tmef"
    codes = []
    peak = _traced_peak(lambda: codes.append(_postprocess(student, out, nuclei)))
    assert codes == [2]
    named = f"{student} and {nuclei}" if "dimensions" in message else f"{student}"
    err = capsys.readouterr().err
    assert f"error: {named}: " in err and message in err
    assert peak < 1 << 20
    assert not out.exists()
    with pytest.raises(ContainerError, match="student"):
        StudentReader(student, nuclei)


@pytest.mark.parametrize(
    "command, flag",
    [("count", "--mask"), ("tme", "--mask"), ("evaluate", "--gt"), ("evaluate", "--pred")],
)
def test_wrong_kind_exits_2_before_any_payload(tmp_path, capsys, command, flag):
    wrong = _sparse(tmp_path / "student.tmef", "f32", NAMES, 1024, 1200)
    assert os.path.getsize(wrong) > 64 << 20
    labels = tmp_path / "labels.tmef"
    save_stack(StackContainer(("labels",), np.zeros((1, 4, 4), np.uint8), "u8"), labels)
    inputs = {"--gt": labels, "--pred": labels} if command == "evaluate" else {}
    inputs[flag] = wrong
    out = tmp_path / "out.json"
    argv = [command, "--out", str(out)]
    for name, path in inputs.items():
        argv += [name, str(path)]
    importlib.import_module("tmeseg.tme")  # the bound is on the read, not on `tme`'s import
    codes = []
    peak = _traced_peak(lambda: codes.append(cli(argv)))
    assert codes == [2]
    assert f"error: {wrong}: not a label raster container" in capsys.readouterr().err
    assert peak <= 1 << 20
    assert not out.exists()


def test_student_must_be_f32(tmp_path, capsys):
    student = _sparse(tmp_path / "student.tmef", "u8", NAMES, 8, 8)
    assert _postprocess(student, tmp_path / "out.tmef") == 2
    assert "must be f32" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Start-up: commands that never call scipy do not import it
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command,uses_scipy",
    [
        ("evaluate", False),
        ("info", False),
        ("postprocess", False),
        ("count", False),
        ("tme", False),
        ("aggregate", True),  # the blur: the check sees scipy where it is imported
    ],
)
def test_scipy_is_imported_only_by_commands_that_call_it(tmp_path, command, uses_scipy):
    class_ids, planes, nuclei = _random_inputs(6)
    assert cli(["synth", "--seed", "1", "--out-dir", str(tmp_path / "bundle")]) == 0
    student = _student_file(tmp_path / "student.tmef", class_ids, planes)
    nuclei_path = _nuclei_file(tmp_path / "nuclei.tmef", nuclei)
    labels = tmp_path / "labels.tmef"
    save_stack(StackContainer(("labels",), force_mode(LogitStack(class_ids, planes))[None], "u8"),
               labels)
    argv = {
        "evaluate": ["evaluate", "--gt", str(labels), "--pred", str(labels),
                     "--out", str(tmp_path / "eval.json")],
        "info": ["info", str(student)],
        "postprocess": ["postprocess", "--student", str(student), "--mode", "panoptic",
                        "--nuclei", str(nuclei_path), "--out", str(tmp_path / "pan.tmef")],
        "count": ["count", "--mask", str(labels), "--out", str(tmp_path / "count.json")],
        "tme": ["tme", "--mask", str(labels), "--mpp", "0.25", "--out", str(tmp_path / "tme.json")],
        "aggregate": ["aggregate", "--bundle", str(tmp_path / "bundle" / "bundle.json"),
                      "--out", str(tmp_path / "agg.tmef")],
    }[command]
    src = str(Path(tmeseg.__file__).resolve().parent.parent)
    # -X importtime reports every module the run imports on stderr, one a line
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tmeseg", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert ("scipy" in imported) == uses_scipy
