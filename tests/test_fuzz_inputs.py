"""Property tests: malformed label rasters never crash a command.

Each example starts from valid 6x6 inputs (two label rasters, an instance
map, a class map and per-nucleus classes), mutates one container, either a
header value, its length or its payload bytes, and runs the CLI in process
on ``evaluate`` (with the instance flags), ``count`` or ``tme``. The run
must return 0 or 2 without raising. On 2, stderr holds one ``error:`` line
naming the mutated file, stdout is empty, and neither the report nor its
provenance record is left behind.
"""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmeseg.cli import cli
from tmeseg.container import container_from_instances, container_from_labels, save_stack
from tmeseg.raster import InstanceMap
from tmeseg.taxonomy import default_taxonomy

TAX = default_taxonomy()
STROMA, EPI = TAX.resolve("stroma"), TAX.resolve("epithelial_tissue")
LYM, EPI_N = TAX.resolve("lymphocyte"), TAX.resolve("epithelial_cell_nucleus")

# the containers each command reads, by flag
_TARGETS = {
    "evaluate": ("--gt", "--pred", "--nuclei"),
    "count": ("--mask",),
    "tme": ("--mask",),
}
_HEADER_KEYS = ("width", "height", "dtype", "channels", "mpp")

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([2**31, 2**64, 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["u8", "u32", "f32", "i16"]),
    st.lists(st.sampled_from(["labels", "instance_ids", "r", 1]), max_size=3),
)

_mutations = st.one_of(
    st.tuples(st.just("header"), st.sampled_from(_HEADER_KEYS), _values),
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    # overwrite payload bytes: (first byte, modulo the payload size; bytes)
    st.tuples(
        st.just("payload"),
        st.integers(0, 1 << 16),
        st.lists(st.sampled_from([15, 200, 255, 0x80, 1, 0]), min_size=1, max_size=4),
    ),
)


def _write_inputs(root: Path) -> dict[str, Path]:
    """Valid 6x6 inputs: one nucleus (id 1) of 12 pixels under a
    lymphocyte, beside tumour."""
    labels = np.full((6, 6), STROMA, np.uint8)
    labels[:, 4:] = EPI
    labels[2, 5] = EPI_N
    labels[1:5, 1:4] = LYM
    ids = np.zeros((6, 6), np.int32)
    ids[1:5, 1:4] = 1
    paths = {
        "--gt": root / "gt.tmef",
        "--pred": root / "pred.tmef",
        "--mask": root / "mask.tmef",
        "--nuclei": root / "nuclei.tmef",
        "--map": root / "map.json",
        "--gt-classes": root / "classes.json",
    }
    for flag in ("--gt", "--pred", "--mask"):
        save_stack(container_from_labels(labels, 0.5), paths[flag])
    save_stack(container_from_instances(InstanceMap(ids), 0.5), paths["--nuclei"])
    paths["--map"].write_text(
        json.dumps({"eval_classes": ["lymphocyte"], "map": {"lymphocyte": "lymphocyte"}})
    )
    paths["--gt-classes"].write_text(json.dumps({"classes": {"1": LYM}}))
    return paths


def _mutate(path: Path, mutation) -> None:
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[:4])
    header, payload = blob[4 : 4 + hlen], blob[4 + hlen :]
    kind = mutation[0]
    if kind == "header":
        _, key, value = mutation
        doc = json.loads(header)
        doc[key] = value
        header = json.dumps(doc).encode()  # NaN and Infinity as Python writes them
        blob = struct.pack("<I", len(header)) + header + payload
    elif kind == "truncate":
        blob = blob[: int(mutation[1] * len(blob))]
    else:
        _, at, values = mutation
        start = 4 + hlen + at % len(payload)
        patch = bytes(values)[: len(blob) - start]
        blob = blob[:start] + patch + blob[start + len(patch) :]
    path.write_bytes(blob)


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, flags in _TARGETS.items() for flag in flags]
)
@settings(max_examples=60, deadline=None, database=None)
@given(mutation=_mutations)
def test_a_mutated_label_input_exits_0_or_2_naming_the_file(command, flag, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = _write_inputs(root)
        flags = _TARGETS[command]
        target = paths[flag]
        _mutate(target, mutation)
        out = root / "out.json"
        argv = [command, "--out", str(out)]
        for flag in flags + (("--map", "--gt-classes") if command == "evaluate" else ()):
            argv += [flag, str(paths[flag])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli(argv)
        assert code in (0, 2), (code, stderr.getvalue())
        if code == 2:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and err.startswith("tmeseg: error: "), err
            assert str(target) in err, err
            assert stdout.getvalue() == ""
            assert not out.exists() and not out.with_suffix(".provenance.json").exists()
