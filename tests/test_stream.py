"""The streamed bundle reader: equal to the in-memory path, hashes every
byte, fails from the headers or on the first bad block, closes what it
opened, and never holds a logit plane or an id raster."""

import dataclasses
import hashlib
import importlib
import itertools
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tmeseg
import tmeseg.container
from tmeseg.aggregate import aggregate
from tmeseg.cli import cli
from tmeseg.config import RunConfig
from tmeseg.container import (
    BundleReader,
    ContainerError,
    PayloadValueError,
    StackContainer,
    StudentReader,
    TruncatedPayloadError,
    container_from_logits,
    load_bundle,
    save_bundle,
    save_stack,
)
from tmeseg.raster import LogitStack
from tmeseg.reference import reference_aggregate
from tmeseg.synth import build_bundle, random_scene, throughput_bundle
from tmeseg.taxonomy import VOCABULARY

PARTS = ("he", "tissue_logits", "cell_logits", "nuclei")
# Every order of the three tissue planes: smooth muscle before and after
# epithelium, red blood cells first, between and last.
TISSUE_ORDERS = list(itertools.permutations(range(3)))


def _rewrite(bundle, out_dir: Path, name: str, stack: LogitStack) -> None:
    save_stack(container_from_logits(stack, bundle.mpp, bundle.halo), out_dir / f"{name}.tmef")


def _poke_f32(path: Path, where: int, value: float) -> None:
    """Overwrite payload value ``where`` (a flat index; negative counts from
    the end) of an f32 TMEF1 file, for the non-finite values that
    ``save_stack`` refuses to write."""
    with open(path, "r+b") as fh:
        (hlen,) = struct.unpack("<I", fh.read(4))
        size = (os.fstat(fh.fileno()).st_size - 4 - hlen) // 4
        fh.seek(4 + hlen + 4 * (where % size))
        fh.write(struct.pack("<f", value))


def _permuted(stack: LogitStack, order) -> LogitStack:
    return LogitStack(tuple(stack.class_ids[i] for i in order), stack.planes[list(order)])


def _assert_same_inputs(a, b):
    assert np.array_equal(a.nuclei.ids, b.nuclei.ids)
    assert a.nuclei.attrs == b.nuclei.attrs
    for name in ("index", "slot", "gids"):
        assert np.array_equal(getattr(a.nuclei, name), getattr(b.nuclei, name))
    assert a.cell_vals.dtype == b.cell_vals.dtype == np.float32
    assert np.array_equal(a.cell_vals, b.cell_vals)


def _assert_same_result(a, b):
    a.check_invariants()
    b.check_invariants()
    assert np.array_equal(a.semantic, b.semantic)
    assert np.array_equal(a.instances.ids, b.instances.ids)
    assert np.array_equal(a.mitosis.ids, b.mitosis.ids)
    assert a.classes == b.classes
    for x, y in zip(a.provenance, b.provenance):
        assert np.array_equal(x, y)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stream(manifest: Path):
    """A bundle's ``FusionInputs`` and digests, read by one ``BundleReader``."""
    with BundleReader(manifest) as reader:
        return reader.reduce(), reader.digests


def _stream_slabs(manifest: Path):
    """``_stream`` of a bundle, and the row slabs ``(top, bottom)`` in which
    ``aggregate`` on a reader of it read the tissue logits; ``reduce()``
    reads none."""
    slabs, rows = [], BundleReader.rows

    def recording_rows(self, name, top, bottom):
        if name == "tissue_logits":
            slabs.append((top, bottom))
        return rows(self, name, top, bottom)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BundleReader, "rows", recording_rows)
        streamed = _stream(manifest)
        assert slabs == []
        with BundleReader(manifest) as reader:
            aggregate(reader)
    return *streamed, slabs


def _chunk_bytes(seed: int) -> int:
    """The read buffer of random scene ``seed``: on its 96 x 96 frame, the
    tissue slabs run from one row (seeds 0-5) to seven (21-23), and the last
    slab is shorter for five rows (15-17) and seven (21-23)."""
    return 4 * (61 + 97 * seed)


@pytest.mark.parametrize("seed", range(24))
def test_streamed_equals_in_memory_on_random_scenes(tmp_path, monkeypatch, seed):
    # small buffers, so chunks end mid-row and planes split unevenly
    monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", _chunk_bytes(seed))
    bundle = build_bundle(random_scene(seed, max_nuclei=30, max_candidates=6))
    manifest = save_bundle(bundle, tmp_path)
    tissue_order = TISSUE_ORDERS[seed % len(TISSUE_ORDERS)]
    _rewrite(bundle, tmp_path, "tissue_logits", _permuted(bundle.tissue_logits, tissue_order))
    if seed % 2:
        cell_order = np.random.default_rng(seed).permutation(len(bundle.cell_logits.class_ids))
        _rewrite(bundle, tmp_path, "cell_logits", _permuted(bundle.cell_logits, cell_order))

    streamed, digests, slabs = _stream_slabs(manifest)
    h = bundle.shape[0]
    # more than one slab, and the slabs tile the frame's rows in order
    assert len(slabs) > 1
    assert [top for top, _ in slabs] == [0] + [bottom for _, bottom in slabs[:-1]]
    assert slabs[-1][1] == h
    _assert_same_inputs(streamed, bundle.reduce())
    loaded = load_bundle(manifest)  # permuted in memory
    _assert_same_inputs(streamed, loaded.reduce())
    assert loaded.he.flags.c_contiguous and np.array_equal(loaded.he, bundle.he)
    with BundleReader(manifest) as reader:
        # the file's tissue channels, matched by class id to the bundle's
        ids = bundle.tissue_logits.class_ids
        order = [ids.index(c) for c in reader._class_ids["tissue_logits"]]
        for top, bottom in ((0, h), (0, 1), (h // 3, h - 2), (h - 1, h)):
            he = reader.rows("he", top, bottom)
            assert np.array_equal(he, bundle.rows("he", top, bottom)) and he.flags.c_contiguous
            tissue = bundle.rows("tissue_logits", top, bottom)[order]
            assert np.array_equal(reader.rows("tissue_logits", top, bottom), tissue)
    cfg = RunConfig(background_threshold=200) if seed % 3 == 0 else RunConfig()
    with BundleReader(manifest) as reader:
        result = aggregate(reader, cfg)
    _assert_same_result(result, aggregate(bundle, cfg))
    truth = reference_aggregate(bundle, cfg)  # the per-pixel oracle, canonical order
    assert np.array_equal(result.semantic, truth["semantic"])
    assert result.classes == truth["classes"]
    with BundleReader(manifest) as reader:
        tiled = aggregate(reader, dataclasses.replace(cfg, crop_px=40, stride_px=30))
    _assert_same_result(tiled, result)
    paths = [manifest] + [tmp_path / f"{p}.tmef" for p in PARTS]
    assert digests == {str(p): _sha256(p) for p in paths}


def test_the_random_scenes_read_one_row_and_uneven_tissue_slabs(tmp_path, monkeypatch):
    # the buffers of test_streamed_equals_in_memory_on_random_scenes, on
    # one of its 96 x 96 frames: every one reads more than one slab, some
    # one row each, some with a last slab shorter than the others
    manifest = save_bundle(build_bundle(random_scene(0, max_nuclei=5)), tmp_path)
    heights = []
    for seed in range(24):
        monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", _chunk_bytes(seed))
        slabs = _stream_slabs(manifest)[2]
        assert len(slabs) > 1
        heights.append([bottom - top for top, bottom in slabs])
    assert heights[0] == [1] * 96
    assert any(h[-1] < h[0] for h in heights)


@pytest.fixture(scope="module")
def slide(tmp_path_factory):
    """``throughput_bundle(2048)`` on disk, with its payload byte count."""
    bundle = throughput_bundle(2048)
    manifest = save_bundle(bundle, tmp_path_factory.mktemp("slide"))
    payload = sum(
        a.nbytes
        for a in (bundle.he, bundle.tissue_logits.planes, bundle.cell_logits.planes,
                  bundle.nuclei.ids)
    )
    return manifest, payload


def test_streamed_equals_in_memory_on_throughput_bundle(slide):
    manifest, _ = slide
    cfg = RunConfig(background_threshold=200)
    streamed, _ = _stream(manifest)
    in_memory = load_bundle(manifest)
    _assert_same_inputs(streamed, in_memory.reduce())
    with BundleReader(manifest) as reader:
        _assert_same_result(aggregate(reader, cfg), aggregate(in_memory, cfg))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_read_holds_no_logit_stack(slide):
    manifest, payload = slide
    # H&E, the nuclei's pixels, read buffers and small reductions: ~0.12x
    # here; load_bundle holds the whole payload, ~1.0x
    assert _traced_peak(lambda: _stream(manifest)) <= 0.4 * payload


# Runs argv[1:] and prints its peak RSS (KiB). Linux carries the peak RSS of
# the process that execs a program into the program's ru_maxrss, so the
# measured command is started from this small launcher, not from pytest.
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_cli_aggregate_peak_rss_below_the_logit_files(slide, tmp_path):
    manifest, _ = slide
    logit_bytes = sum(
        os.path.getsize(manifest.parent / f"{p}.tmef") for p in ("tissue_logits", "cell_logits")
    )
    src = str(Path(tmeseg.__file__).resolve().parent.parent)
    out = tmp_path / "out.tmef"
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "tmeseg", "aggregate",
         "--bundle", str(manifest), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    # the stacks alone are 208 MiB; a streamed run peaks near 105 MB
    assert int(proc.stdout) * 1024 < logit_bytes  # ru_maxrss is in KiB on Linux


def test_opening_a_reader_allocates_nothing_frame_sized(slide):
    manifest, _ = slide
    shapes = []

    def open_reader():
        with BundleReader(manifest) as reader:
            shapes.append(reader.shape)

    open_reader()  # one-time allocations (imports, caches) are not the opening's
    peak = _traced_peak(open_reader)
    assert shapes[-1] == (2048, 2048) and not hasattr(BundleReader, "he")
    # the manifest's bytes, its parsed candidates and four headers; the H&E
    # tile alone would be 12 MB here
    assert peak <= 64 * 1024 + os.path.getsize(manifest), peak


@pytest.mark.parametrize("threshold", [200, None], ids=["pinned", "otsu"])
def test_aggregate_on_a_reader_peaks_below_6_bytes_per_pixel(slide, threshold):
    manifest, _ = slide
    cfg = RunConfig(background_threshold=threshold)
    importlib.import_module("scipy.ndimage")  # so the blur's first call traces no import
    shapes = []

    def run():
        with BundleReader(manifest) as reader:  # the opening is traced too
            shapes.append(reader.shape)
            aggregate(reader, cfg, workers=2)

    peak = _traced_peak(run)
    (h, w), = shapes
    # no H&E frame, no id raster, no tissue plane or mask, one frame for
    # the gray and the labels: about 4.7 bytes per pixel here, 7.2-7.3 with
    # a tissue frame beside the gray, 9.0 with the H&E frame too
    assert peak <= 6 * h * w


def _narrow_cells(bundle, out_dir):
    stack = bundle.cell_logits
    _rewrite(bundle, out_dir, "cell_logits", LogitStack(stack.class_ids, stack.planes[:, :, :-1]))


def _no_red_blood_cells(bundle, out_dir):
    stack = bundle.tissue_logits
    _rewrite(bundle, out_dir, "tissue_logits", _permuted(stack, range(2)))


@pytest.mark.parametrize(
    "break_part,message",
    [(_narrow_cells, "cell_logits does not share"), (_no_red_blood_cells, "red_blood_cell")],
    ids=["cell-logits-one-column-narrower", "tissue-logits-without-rbc"],
)
def test_parts_that_disagree_fail_from_the_headers(tmp_path, capsys, break_part, message):
    bundle = throughput_bundle(512)  # 10 MB of cell logits
    manifest = save_bundle(bundle, tmp_path)
    break_part(bundle, tmp_path)
    out = tmp_path / "out.tmef"
    assert cli(["aggregate", "--bundle", str(manifest), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()

    for reader in (BundleReader, load_bundle):

        def read():
            with pytest.raises(ContainerError, match=message):
                reader(manifest)

        assert _traced_peak(read) < 1 << 20


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("part", ["tissue_logits", "cell_logits"])
@pytest.mark.parametrize(
    "where,value",
    [(0, np.nan), (-1, np.inf), (-1, np.nan)],
    ids=["first-nan", "last-inf", "last-nan"],
)
def test_every_logit_value_is_checked_finite(tmp_path, monkeypatch, capsys, part, where, value):
    monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", 4 * 500)
    bundle = build_bundle(random_scene(3, max_nuclei=5))
    manifest = save_bundle(bundle, tmp_path)
    _poke_f32(tmp_path / f"{part}.tmef", where, value)
    before = _open_fds()
    for read in (_stream, load_bundle):
        with pytest.raises(PayloadValueError, match="NaN or Inf"):
            read(manifest)
        assert _open_fds() == before
    assert cli(["aggregate", "--bundle", str(manifest), "--out", str(tmp_path / "o.tmef")]) == 2
    assert part in capsys.readouterr().err


@pytest.mark.parametrize("read", ["load_stack", "BundleReader", "load_bundle"])
def test_file_growing_after_fstat_is_rejected(tmp_path, monkeypatch, read):
    bundle = build_bundle(random_scene(4, max_nuclei=5))
    manifest = save_bundle(bundle, tmp_path)
    part = tmp_path / "cell_logits.tmef"
    grown = os.stat(part)
    with open(part, "ab") as fh:
        fh.write(bytes(4))
    real_fstat = os.fstat

    def fstat(fd):  # the part's size as it was before it grew
        st = real_fstat(fd)
        return grown if st.st_ino == grown.st_ino else st

    monkeypatch.setattr(tmeseg.container.os, "fstat", fstat)
    readers = {
        "load_stack": lambda: tmeseg.container.load_stack(part),
        "BundleReader": lambda: _stream(manifest),
        "load_bundle": lambda: load_bundle(manifest),
    }
    with pytest.raises(TruncatedPayloadError, match="changed while reading"):
        readers[read]()


def test_a_large_nucleus_id_in_a_later_chunk_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", 4 * 500)  # 500 ids a chunk
    bundle = build_bundle(random_scene(5, max_nuclei=5))
    manifest = save_bundle(bundle, tmp_path)
    ids = bundle.nuclei.ids.astype(np.uint32)
    ids[-1, -1] = 2**31
    save_stack(StackContainer(("instance_ids",), ids[None], "u32"), tmp_path / "nuclei.tmef")
    planes = np.zeros((len(VOCABULARY.ids),) + bundle.he.shape[:2], np.float32)
    student = tmp_path / "student.tmef"
    save_stack(container_from_logits(LogitStack(VOCABULARY.ids, planes)), student)
    before = _open_fds()
    with pytest.raises(PayloadValueError, match="below 2"):
        _stream(manifest)
    assert _open_fds() == before
    with pytest.raises(PayloadValueError, match="below 2"):
        with StudentReader(student, tmp_path / "nuclei.tmef") as reader:
            reader.nuclei()
    assert _open_fds() == before


@pytest.mark.parametrize("change", [4, -4], ids=["grown", "shrunk"])
def test_a_tissue_file_resized_after_opening_is_rejected(tmp_path, monkeypatch, change):
    monkeypatch.setattr(tmeseg.container, "_CHUNK_BYTES", 4 * 500)
    manifest = save_bundle(build_bundle(random_scene(7, max_nuclei=5)), tmp_path)
    tissue = tmp_path / "tissue_logits.tmef"
    before = _open_fds()
    with pytest.raises(TruncatedPayloadError, match="changed while reading"):
        with BundleReader(manifest) as reader:
            os.truncate(tissue, os.path.getsize(tissue) + change)
            reader.reduce()
    assert _open_fds() == before


@pytest.mark.parametrize("change", [4, -4], ids=["grown", "shrunk"])
def test_an_he_file_resized_after_opening_is_rejected(tmp_path, change):
    # grown, the H&E drain finds the extra bytes; shrunk, the last band's read
    # comes up short too: either way the bands' threads are joined first
    manifest = save_bundle(build_bundle(random_scene(7, 100, 100, max_nuclei=5)), tmp_path)
    he = tmp_path / "he.tmef"
    fds, threads = _open_fds(), threading.active_count()
    with pytest.raises(TruncatedPayloadError, match="he.tmef: payload size changed while reading"):
        with BundleReader(manifest) as reader:
            os.truncate(he, os.path.getsize(he) + change)
            aggregate(reader, RunConfig(crop_px=40, stride_px=30), workers=2)
    assert (_open_fds(), threading.active_count()) == (fds, threads)


# tissue faults: (error, message, how a file gets it)
_TISSUE_FAULTS = {
    "last-row-nan": (PayloadValueError, "NaN or Inf", lambda path: _poke_f32(path, -1, np.nan)),
    "grown": (TruncatedPayloadError, "size changed", lambda path: _resize(path, 4)),
    "shrunk": (TruncatedPayloadError, "size changed", lambda path: _resize(path, -4)),
}


def _resize(path: Path, change: int) -> None:
    os.truncate(path, os.path.getsize(path) + change)


@pytest.mark.parametrize(
    "fault,after",
    [("last-row-nan", "opening"), ("grown", "opening"), ("shrunk", "opening"),
     ("last-row-nan", "reduce"), ("shrunk", "reduce")],
)
def test_a_tissue_fault_fails_aggregate_on_a_reader(tmp_path, monkeypatch, fault, after):
    # after opening, the tissue drain in ``reduce()`` finds the fault; after
    # ``reduce()``, the last tissue slab's read does: either way the bands'
    # threads are joined first
    manifest = save_bundle(build_bundle(random_scene(7, 100, 100, max_nuclei=5)), tmp_path)
    tissue = tmp_path / "tissue_logits.tmef"
    error, message, inject = _TISSUE_FAULTS[fault]
    if after == "reduce":
        reduce = BundleReader.reduce
        monkeypatch.setattr(BundleReader, "reduce", lambda self: (reduce(self), inject(tissue))[0])
    fds, threads = _open_fds(), threading.active_count()
    with pytest.raises(error, match=f"tissue_logits.tmef: .*{message}"):
        with BundleReader(manifest) as reader:
            if after == "opening":
                inject(tissue)
            aggregate(reader, RunConfig(crop_px=40, stride_px=30), workers=2)
    assert (_open_fds(), threading.active_count()) == (fds, threads)
