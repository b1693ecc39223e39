import hashlib
import json
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmeseg.cli import cli

from tmeseg.container import (
    BundleReader,
    ContainerError,
    DtypeError,
    MagicError,
    PayloadValueError,
    StackContainer,
    TruncatedPayloadError,
    container_from_instances,
    container_from_labels,
    container_from_logits,
    container_from_rgb,
    load_bundle,
    load_instances,
    load_labels,
    load_stack,
    save_bundle,
    save_stack,
)
from tmeseg.aggregate import CELL_IDS, TeacherBundle
from tmeseg.raster import InstanceMap, LogitStack
from tmeseg.synth import build_bundle, random_scene, throughput_bundle
from tmeseg.taxonomy import UnknownClassError, default_taxonomy
from test_stream import _stream

TAX = default_taxonomy()


def _write(tmp_path, container, name="stack.tmef"):
    path = tmp_path / name
    save_stack(container, path)
    return path


@pytest.mark.parametrize(
    "dtype,maker",
    [
        ("f32", lambda rng: rng.normal(size=(3, 5, 7)).astype(np.float32)),
        ("u8", lambda rng: rng.integers(0, 256, size=(2, 5, 7)).astype(np.uint8)),
        ("u32", lambda rng: rng.integers(0, 9, size=(1, 5, 7)).astype(np.uint32)),
    ],
)
def test_round_trip_all_dtypes(tmp_path, dtype, maker):
    rng = np.random.default_rng(1)
    planes = maker(rng)
    names = tuple(f"ch{i}" for i in range(planes.shape[0]))
    c = StackContainer(names, planes, dtype, mpp=0.25, halo=3, meta={"k": "v"})
    path = _write(tmp_path, c)
    back = load_stack(path)
    assert back.channels == names
    assert back.dtype == dtype
    assert back.mpp == 0.25 and back.halo == 3 and back.meta == {"k": "v"}
    assert np.array_equal(back.planes, planes)


def test_byte_layout_is_header_length_then_json_then_planes(tmp_path):
    planes = np.arange(6, dtype=np.uint8).reshape(1, 2, 3)
    path = _write(tmp_path, StackContainer(("labels",), planes, "u8"))
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[:4])
    header = json.loads(blob[4 : 4 + hlen])
    assert header["magic"] == "TMEF1"
    assert (header["height"], header["width"]) == (2, 3)
    assert list(header) == sorted(header)  # keys sorted for reproducible bytes
    assert blob[4 + hlen :] == bytes(range(6))  # row-major payload


def test_save_is_byte_deterministic(tmp_path):
    planes = np.zeros((1, 4, 4), np.float32)
    c = StackContainer(("a",), planes, "f32", meta={"z": 1, "a": 2})
    p1 = _write(tmp_path, c, "one.tmef")
    p2 = _write(tmp_path, c, "two.tmef")
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = _write(tmp_path, StackContainer(("a",), np.zeros((1, 2, 2), np.uint8), "u8"))
    blob = bytearray(path.read_bytes())
    header = json.loads(blob[4 : 4 + struct.unpack("<I", blob[:4])[0]])
    header["magic"] = "WRONG"
    enc = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<I", len(enc)) + enc + bytes(blob[-4:]))
    with pytest.raises(MagicError, match="WRONG"):
        load_stack(path)


def test_unknown_dtype_rejected(tmp_path):
    with pytest.raises(DtypeError):
        StackContainer(("a",), np.zeros((1, 2, 2)), "f64")
    path = _write(tmp_path, StackContainer(("a",), np.zeros((1, 2, 2), np.uint8), "u8"))
    blob = path.read_bytes()
    hlen = struct.unpack("<I", blob[:4])[0]
    header = json.loads(blob[4 : 4 + hlen])
    header["dtype"] = "i16"
    enc = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<I", len(enc)) + enc + blob[4 + hlen :])
    with pytest.raises(DtypeError, match="i16"):
        load_stack(path)


def test_truncation_error_names_expected_and_actual(tmp_path):
    path = _write(
        tmp_path, StackContainer(("a", "b"), np.zeros((2, 3, 3), np.float32), "f32")
    )
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TruncatedPayloadError, match="expected 72 .* found 67"):
        load_stack(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "broken.tmef"
    path.write_bytes(b"\x00\x01")
    with pytest.raises(TruncatedPayloadError):
        load_stack(path)
    path.write_bytes(struct.pack("<I", 4096) + b"{}")
    with pytest.raises(TruncatedPayloadError):
        load_stack(path)


def test_nonfinite_f32_payload_rejected(tmp_path):
    planes = np.zeros((1, 2, 2), np.float32)
    path = _write(tmp_path, StackContainer(("a",), planes, "f32"))
    blob = bytearray(path.read_bytes())
    blob[-4:] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(PayloadValueError, match="NaN"):
        load_stack(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_refuses_a_nonfinite_f32_plane(tmp_path, value):
    planes = np.zeros((2, 3, 3), np.float32)
    planes[1, 2, 0] = value
    path = tmp_path / "stack.tmef"
    with pytest.raises(PayloadValueError, match="NaN or Inf"):
        save_stack(StackContainer(("a", "b"), planes, "f32"), path)
    assert not path.exists()


def _write_raw(path, header, payload=bytes(4)):
    enc = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(struct.pack("<I", len(enc)) + enc + payload)
    return path


def _header(**changes):
    good = {"magic": "TMEF1", "width": 2, "height": 2, "dtype": "u8", "channels": ["a"]}
    return {**good, **changes}


@pytest.mark.parametrize(
    "header,error",
    [
        pytest.param(b"[1, 2]", ContainerError, id="list"),
        pytest.param(b'"TMEF1"', ContainerError, id="string"),
        pytest.param(b"\xff\xfe", ContainerError, id="not-utf8"),
        pytest.param(b'{"width": ' + b"9" * 5000 + b"}", ContainerError, id="long-int"),
        pytest.param(_header(width=None), ContainerError, id="width-null"),
        pytest.param(_header(width=2.9), ContainerError, id="width-float"),
        pytest.param(_header(width=4, height=True), ContainerError, id="height-bool"),
        pytest.param(_header(width="2"), ContainerError, id="width-str"),
        pytest.param(_header(width=float("inf")), ContainerError, id="width-inf"),
        pytest.param(_header(width=0), ContainerError, id="width-zero"),
        pytest.param(_header(width=10**30), TruncatedPayloadError, id="width-huge"),
        pytest.param(_header(channels="rgb"), ContainerError, id="channels-str"),
        pytest.param(_header(channels=[1]), ContainerError, id="channels-int"),
        pytest.param(_header(channels=[]), ContainerError, id="channels-empty"),
        pytest.param(_header(channels=["a", "a"]), ContainerError, id="channels-dup"),
        pytest.param(_header(dtype=["u8"]), DtypeError, id="dtype-list"),
        pytest.param(_header(magic=None), MagicError, id="magic-null"),
        pytest.param(_header(meta=[1]), ContainerError, id="meta-list"),
        pytest.param(_header(mpp="x"), ContainerError, id="mpp-str"),
        pytest.param(_header(mpp=0), ContainerError, id="mpp-zero"),
        pytest.param(_header(mpp=-0.25), ContainerError, id="mpp-negative"),
        pytest.param(_header(mpp=float("nan")), ContainerError, id="mpp-nan"),
        pytest.param(_header(mpp=True), ContainerError, id="mpp-bool"),
        pytest.param(_header(mpp=[0.25]), ContainerError, id="mpp-list"),
        pytest.param(_header(halo=-1), ContainerError, id="halo-negative"),
        pytest.param(_header(halo=1.5), ContainerError, id="halo-float"),
        pytest.param(_header(halo="2"), ContainerError, id="halo-str"),
        pytest.param(_header(halo=True), ContainerError, id="halo-bool"),
    ],
)
def test_malformed_header_raises_typed_error(tmp_path, header, error):
    path = _write_raw(tmp_path / "bad.tmef", header)
    with pytest.raises(error):
        load_stack(path)
    assert cli(["info", str(path)]) == 2


@pytest.mark.parametrize(
    "extra", [{}, {"mpp": None}, {"mpp": 1}, {"mpp": 0.5, "halo": 0}, {"halo": 7}]
)
def test_absent_or_valid_mpp_and_halo_accepted(tmp_path, extra):
    back = load_stack(_write_raw(tmp_path / "ok.tmef", _header(**extra)))
    assert back.mpp == extra.get("mpp") and back.halo == extra.get("halo")


def test_trailing_bytes_rejected_and_planes_native(tmp_path):
    planes = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    back = load_stack(_write(tmp_path, StackContainer(("a", "b"), planes, "f32")))
    assert back.planes.dtype == np.float32 and back.planes.flags.c_contiguous
    assert np.array_equal(back.planes, planes)
    assert load_stack(_write_raw(tmp_path / "good.tmef", _header())).planes.shape == (1, 2, 2)
    path = _write_raw(tmp_path / "long.tmef", _header(), bytes(5))
    with pytest.raises(TruncatedPayloadError, match="expected 4 .* found 5"):
        load_stack(path)


def test_container_errors_are_value_errors():
    for exc in (MagicError, DtypeError, TruncatedPayloadError, PayloadValueError):
        assert issubclass(exc, ContainerError)
        assert issubclass(exc, ValueError)


def test_container_shape_and_name_validation():
    with pytest.raises(ContainerError):
        StackContainer(("a",), np.zeros((2, 2), np.uint8), "u8")  # not (C, H, W)
    with pytest.raises(ContainerError):
        StackContainer(("a", "a"), np.zeros((2, 2, 2), np.uint8), "u8")
    with pytest.raises(ContainerError):
        StackContainer((), np.zeros((0, 2, 2), np.uint8), "u8")


@pytest.mark.parametrize(
    "make",
    [
        lambda: StackContainer(("a",), np.zeros((1, 0, 4), np.uint8), "u8"),
        lambda: StackContainer(("a",), np.zeros((1, 4, 0), np.uint8), "u8"),
        lambda: container_from_labels(np.zeros((0, 3), np.uint8)),
        lambda: container_from_rgb(np.zeros((0, 3, 3), np.uint8)),
    ],
    ids=["height-0", "width-0", "labels-0x3", "rgb-0x3"],
)
def test_container_refuses_planes_load_stack_would_refuse(make):
    with pytest.raises(ContainerError, match="positive height and width"):
        make()


def test_container_refuses_a_scale_load_stack_would_refuse():
    with pytest.raises(ContainerError, match="mpp must be a finite number > 0"):
        StackContainer(("a",), np.zeros((1, 2, 2), np.uint8), "u8", mpp=-1)


# ---------------------------------------------------------------------------
# Typed adapters
# ---------------------------------------------------------------------------


def test_logit_adapter_round_trip(tmp_path):
    ids = (TAX.resolve("stroma"), TAX.resolve("lymphocyte"))
    stack = LogitStack(ids, np.random.default_rng(0).normal(size=(2, 4, 4)).astype(np.float32))
    path = _write(tmp_path, container_from_logits(stack, mpp=0.5))
    back = load_stack(path)
    assert back.channels == ("stroma", "lymphocyte")
    assert (back.dtype, back.mpp) == ("f32", 0.5)
    assert np.array_equal(back.planes, stack.planes)


def test_logit_adapter_rejects_unknown_channel(tmp_path):
    # a logit part's channel names resolve against the vocabulary on opening
    blob = StackContainer(("not_a_class",) + _VALID.channels[1:], _VALID.planes, "f32")
    manifest = _bundle_around(tmp_path, _write(tmp_path, blob).read_bytes())
    for read in (load_bundle, BundleReader):
        with pytest.raises(ContainerError, match="not_a_class") as caught:
            read(manifest)
        assert isinstance(caught.value.__cause__, UnknownClassError)


def test_label_and_rgb_adapters(tmp_path):
    labels = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = _write(tmp_path, container_from_labels(labels, mpp=0.5))
    back, mpp, digest = load_labels(path)
    assert np.array_equal(back, labels)
    assert (mpp, digest) == (0.5, hashlib.sha256(path.read_bytes()).hexdigest())
    he = np.random.default_rng(2).integers(0, 256, size=(5, 6, 3)).astype(np.uint8)
    planar = load_stack(_write(tmp_path, container_from_rgb(he), "he.tmef"))
    assert planar.channels == ("r", "g", "b")
    assert np.array_equal(planar.planes, np.moveaxis(he, 2, 0))
    with pytest.raises(ContainerError):
        container_from_rgb(np.zeros((5, 6, 4), np.uint8))
    with pytest.raises(ContainerError, match="not a label raster container"):
        load_labels(tmp_path / "he.tmef")


def test_instance_adapter_keeps_teacher_types(tmp_path):
    ids = np.zeros((5, 5), np.int32)
    ids[1, 1] = 1
    ids[3, 3] = 2
    imap = InstanceMap.from_ids(ids, {1: TAX.resolve("fibroblast")})
    path = _write(tmp_path, container_from_instances(imap))
    back, digest = load_instances(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert np.array_equal(back.ids, ids)
    assert back.attrs[1].teacher_type == TAX.resolve("fibroblast")
    assert back.attrs[2].teacher_type is None


def test_instance_ids_beyond_int32_rejected(tmp_path):
    ids = np.zeros((1, 4, 4), np.uint32)
    ids[0, 1, 1] = 2**31
    path = _write(tmp_path, StackContainer(("instance_ids",), ids, "u32"))
    with pytest.raises(PayloadValueError, match=re.escape(f"{path}: instance ids must be below 2**31")):
        load_instances(path)
    ids[0, 1, 1] = 2**31 - 1
    path = _write(tmp_path, StackContainer(("instance_ids",), ids, "u32"))
    back, _ = load_instances(path)
    assert back.instance_ids == [2**31 - 1]


@pytest.mark.parametrize("types", [[1], {"1": None}, {"one": 2}])
def test_malformed_teacher_types_rejected(tmp_path, types):
    ids = np.ones((1, 2, 2), np.uint32)
    c = StackContainer(("instance_ids",), ids, "u32", meta={"teacher_types": types})
    path = _write(tmp_path, c)
    with pytest.raises(PayloadValueError, match=re.escape(f"{path}: bad teacher_types")):
        load_instances(path)


# ---------------------------------------------------------------------------
# Bundle manifest
# ---------------------------------------------------------------------------


def test_bundle_round_trip(tmp_path):
    # a square tile, and a non-square one whose logit channels are not in id order
    square = build_bundle(random_scene(33))
    oblong = build_bundle(random_scene(35, 37, 52))
    stack = oblong.cell_logits
    oblong.cell_logits = LogitStack(stack.class_ids[::-1], stack.planes[::-1])
    for i, bundle in enumerate((square, oblong)):
        manifest = save_bundle(bundle, tmp_path / f"bundle{i}")
        assert manifest.name == "bundle.json"
        back = load_bundle(manifest)
        assert back.he.flags.c_contiguous
        assert np.array_equal(back.he, bundle.he)
        for name in ("tissue_logits", "cell_logits"):
            got, want = getattr(back, name), getattr(bundle, name)
            assert got.planes.dtype == np.float32
            assert np.array_equal(got.planes, want.planes)
            assert got.class_ids == want.class_ids
        assert np.array_equal(back.nuclei.ids, bundle.nuclei.ids)
        assert {g: a.teacher_type for g, a in back.nuclei.attrs.items()} == {
            g: a.teacher_type for g, a in bundle.nuclei.attrs.items()
        }
        assert back.mitosis_candidates == bundle.mitosis_candidates
        assert (back.halo, back.mpp) == (bundle.halo, bundle.mpp)
        back.validate()


def test_bundle_manifest_missing_key(tmp_path):
    bundle = build_bundle(random_scene(34, max_nuclei=3, max_candidates=0))
    manifest = save_bundle(bundle, tmp_path / "bundle")
    doc = json.loads(manifest.read_text())
    del doc["nuclei"]
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ContainerError, match="nuclei"):
        load_bundle(manifest)


# ---------------------------------------------------------------------------
# Memory bounds: a load holds about one payload, validation no full frame
# ---------------------------------------------------------------------------


def _traced_peak(fn):
    """Peak bytes allocated while ``fn`` runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_stack_peak_is_about_one_payload(tmp_path):
    planes = np.random.default_rng(4).normal(size=(10, 512, 512)).astype(np.float32)
    names = tuple(f"c{i}" for i in range(10))
    path = _write(tmp_path, StackContainer(names, planes, "f32"))
    assert _traced_peak(lambda: load_stack(path)) <= 1.25 * planes.nbytes


def test_instance_load_peak_is_about_one_payload(tmp_path):
    nuclei = throughput_bundle(512).nuclei
    path = _write(tmp_path, container_from_instances(nuclei))
    peak = _traced_peak(lambda: load_instances(path))
    assert peak <= 1.5 * nuclei.ids.nbytes


def test_instance_validate_allocates_less_than_half_the_raster():
    nuclei = throughput_bundle(512).nuclei
    assert _traced_peak(nuclei.validate) <= 0.5 * nuclei.ids.nbytes


# ---------------------------------------------------------------------------
# Fuzz: corrupt files fail typed, and before any header-sized allocation
# ---------------------------------------------------------------------------

# a valid tissue-logit part, so a streamed bundle read gets past its headers
_VALID = StackContainer(
    ("smooth_muscle", "epithelial_tissue", "red_blood_cell"),
    np.arange(3 * 3 * 5, dtype=np.float32).reshape(3, 3, 5) - 20,
    "f32",
    mpp=0.5,
    halo=2,
    meta={"k": [1, 2]},
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _bundle_around(tmp: Path, tissue_blob: bytes) -> Path:
    """A 3x5 bundle manifest whose tissue-logit part holds ``tissue_blob``."""
    nid = np.zeros((3, 5), np.int32)
    nid[1, 1:3] = 4
    bundle = TeacherBundle(
        he=np.full((3, 5, 3), 170, np.uint8),
        tissue_logits=LogitStack(tuple(map(TAX.resolve, _VALID.channels)), _VALID.planes),
        cell_logits=LogitStack(CELL_IDS, np.zeros((len(CELL_IDS), 3, 5), np.float32)),
        nuclei=InstanceMap.from_ids(nid),
        mitosis_candidates=((1.0, 1.0, 0.5),),
    )
    manifest = save_bundle(bundle, tmp)
    (tmp / "tissue_logits.tmef").write_bytes(tissue_blob)
    return manifest


def _valid_blob() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.tmef"
        save_stack(_VALID, path)
        return path.read_bytes()


@st.composite
def _corrupted(draw):
    blob = _valid_blob()
    hlen = struct.unpack("<I", blob[:4])[0]
    kind = draw(st.sampled_from(["truncate", "overwrite", "header_value"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if kind == "overwrite":
        out = bytearray(blob)
        hot = draw(st.sampled_from([(0, 4 + hlen), (0, len(blob))]))
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(*hot).filter(lambda i: i < len(blob)))] = draw(
                st.integers(0, 255)
            )
        return bytes(out)
    header = json.loads(blob[4 : 4 + hlen])
    header[draw(st.sampled_from(sorted(header)))] = draw(_JSON)
    enc = json.dumps(header).encode()
    return struct.pack("<I", len(enc)) + enc + blob[4 + hlen :]


@settings(max_examples=300, deadline=None)
@given(_corrupted())
def test_corrupt_file_raises_container_error_without_large_allocation(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.tmef"
        path.write_bytes(blob)
        manifest = _bundle_around(Path(tmp) / "bundle", blob)
        for read, source in ((load_stack, path), (_stream, manifest), (load_bundle, manifest)):
            tracemalloc.start()
            try:
                read(source)
            except ContainerError:
                pass
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            # nothing sized by a corrupt header: at most the file plus parser overhead
            assert peak <= 2 * len(blob) + 65536
