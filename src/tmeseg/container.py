"""TMEF1 stack container: a minimal bit-exact raster file format.

Layout: a little-endian u32 header length, a UTF-8 JSON header, then the
channel planes concatenated row-major in little-endian byte order. The
header carries ``{"magic": "TMEF1", "width", "height", "dtype", "channels",
"mpp"?, "halo"?, "meta"?}`` with dtype one of f32 / u8 / u32. Round-trips
are lossless; f32 payloads must be finite.

Every reader checks a file's header against ``fstat`` before it allocates
anything, then reads the payload through one loop, ``_chunks``, which
checks the size and f32 finiteness and, for a hashed read, feeds every
byte to a SHA-256. A whole read fills the final array plane by plane; a
streamed read goes through one buffer of at most 4 MB. Each file is read
once, except a bundle's tissue logits (see ``BundleReader``):

* ``load_stack`` reads one file whole; ``load_hashed`` also returns its
  SHA-256, taken in the same read.
* ``BundleReader`` reads a teacher bundle: opening it checks every header
  against the others before allocating any payload and reads H&E; its
  ``reduce`` then reads nuclei, keeping only their nonzero pixels, and
  reduces each logit file block by block, so no logit plane and no id
  raster sits in memory. ``load_bundle`` opens a bundle the same way, then
  reads nuclei the same way and both logit stacks whole.
* ``StudentReader`` reads a student logit file, and its nuclei, for the
  ``postprocess`` reductions in the same way.
* ``scan_stack`` checks and hashes one file without keeping its payload.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Sequence

import numpy as np

from .config import DEFAULT_MPP, _is_int, _is_number, check_scale
from .raster import InstanceMap, LogitStack, all_finite
from .taxonomy import VOCABULARY, UnknownClassError

MAGIC = "TMEF1"
_CHUNK_BYTES = 1 << 22  # the streamed reader's buffer: 4 MB at most
_RGB = ("r", "g", "b")
_IDS = ("instance_ids",)

_DTYPES = {"f32": "<f4", "u8": "|u1", "u32": "<u4"}
_NATIVE = {"f32": np.float32, "u8": np.uint8, "u32": np.uint32}


class ContainerError(ValueError):
    """Malformed TMEF1 data."""


class MagicError(ContainerError):
    pass


class DtypeError(ContainerError):
    pass


class TruncatedPayloadError(ContainerError):
    pass


class PayloadValueError(ContainerError):
    pass


@dataclass
class StackContainer:
    channels: tuple[str, ...]
    planes: np.ndarray  # (C, H, W), native dtype
    dtype: str
    mpp: Optional[float] = None
    halo: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.channels = tuple(str(c) for c in self.channels)
        # so save_stack writes loadable headers
        check_scale(self.mpp, self.halo, "container", ContainerError)
        if self.dtype not in _DTYPES:
            raise DtypeError(f"unknown dtype {self.dtype!r}; expected f32/u8/u32")
        self.planes = np.ascontiguousarray(self.planes, dtype=_NATIVE[self.dtype])
        if self.planes.ndim != 3 or self.planes.shape[0] != len(self.channels):
            raise ContainerError("planes must be (C, H, W) with one name per channel")
        if 0 in self.planes.shape[1:]:
            raise ContainerError("planes must have positive height and width")
        if not self.channels:
            raise ContainerError("at least one channel required")
        if len(set(self.channels)) != len(self.channels):
            raise ContainerError("channel names must be distinct")

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]

    def header(self) -> dict:
        return _Header(
            self.dtype, self.height, self.width, self.channels, self.mpp, self.halo, self.meta
        ).doc()


def save_stack(container: StackContainer, path: str | Path) -> None:
    header = json.dumps(container.header(), sort_keys=True).encode("utf-8")
    # written from the array's own buffer: no copy unless the planes need one
    payload = np.ascontiguousarray(container.planes, dtype=_DTYPES[container.dtype])
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def _read_header(fh, path, file_size: int) -> tuple[int, dict]:
    """Read the length field and the JSON header; return (hlen, header)."""
    field = fh.read(4)
    if len(field) < 4:
        raise TruncatedPayloadError(f"{path}: file shorter than the header length field")
    (hlen,) = struct.unpack("<I", field)
    if 4 + hlen > file_size:  # before reading, so a bogus length allocates nothing
        raise TruncatedPayloadError(f"{path}: truncated header (need {hlen} bytes)")
    try:
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContainerError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header must be a JSON object")
    return hlen, header


@dataclass(frozen=True)
class _Header:
    """A checked TMEF1 header whose payload size matches the file."""

    dtype: str
    height: int
    width: int
    channels: tuple[str, ...]
    mpp: Optional[float]
    halo: Optional[int]
    meta: dict
    offset: int = 0  # of the first payload byte in the file

    @property
    def wire(self) -> np.dtype:
        return np.dtype(_DTYPES[self.dtype])

    def doc(self) -> dict:
        """The header as ``save_stack`` writes it."""
        doc = {
            "magic": MAGIC,
            "width": self.width,
            "height": self.height,
            "dtype": self.dtype,
            "channels": list(self.channels),
        }
        if self.mpp is not None:
            doc["mpp"] = self.mpp
        if self.halo is not None:
            doc["halo"] = self.halo
        if self.meta:
            doc["meta"] = self.meta
        return doc


def _read_checked_header(fh, path) -> _Header:
    """Read and check the header; leave ``fh`` at the first payload byte.

    Everything is checked against the header and ``fstat`` before any
    payload-sized allocation.
    """
    file_size = os.fstat(fh.fileno()).st_size
    hlen, header = _read_header(fh, path, file_size)
    if header.get("magic") != MAGIC:
        raise MagicError(f"{path}: bad magic {header.get('magic')!r}; expected {MAGIC!r}")
    dtype = header.get("dtype")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise DtypeError(f"{path}: unknown dtype {dtype!r}; expected f32/u8/u32")
    width, height = header.get("width"), header.get("height")
    channels = header.get("channels")
    if not all(_is_int(v) and v >= 1 for v in (width, height)):
        raise ContainerError(f"{path}: width and height must be positive integers")
    if (
        not isinstance(channels, list)
        or not channels
        or not all(isinstance(c, str) for c in channels)
    ):
        raise ContainerError(f"{path}: channels must be a non-empty list of names")
    if len(set(channels)) != len(channels):
        raise ContainerError(f"{path}: channel names must be distinct")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: meta must be a JSON object")
    mpp, halo = header.get("mpp"), header.get("halo")
    check_scale(mpp, halo, path, ContainerError)
    head = _Header(dtype, height, width, tuple(channels), mpp, halo, meta, 4 + hlen)
    expected = width * height * len(channels) * head.wire.itemsize
    actual = file_size - 4 - hlen
    if actual != expected:
        raise TruncatedPayloadError(f"{path}: expected {expected} payload bytes, found {actual}")
    return head


def _changed(path) -> TruncatedPayloadError:
    return TruncatedPayloadError(f"{path}: payload size changed while reading")


def _check_read(got: int, chunk: np.ndarray, head: _Header, path) -> None:
    """A read of ``got`` bytes filled ``chunk``, whose f32 values are finite."""
    if got != chunk.nbytes:
        raise _changed(path)
    if head.dtype == "f32" and not all_finite(chunk):
        raise PayloadValueError(f"{path}: f32 payload contains NaN or Inf")


class _Hashed:
    """A binary file that feeds every byte read from it to a SHA-256."""

    def __init__(self, fh):
        self.fh = fh
        self.sha = hashlib.sha256()

    def fileno(self) -> int:
        return self.fh.fileno()

    def read(self, n: int = -1) -> bytes:
        data = self.fh.read(n)
        self.sha.update(data)
        return data

    def readinto(self, buf: memoryview) -> int:
        got = self.fh.readinto(buf)
        self.sha.update(buf[:got])
        return got


_Part = tuple[_Hashed | BinaryIO, _Header, str | Path]  # open file, checked header, path


def _open(files: ExitStack, path: str | Path, hashed: bool = True) -> _Part:
    """Open ``path`` in ``files``, hashed or not; read and check its header."""
    fh = files.enter_context(open(path, "rb"))
    if hashed:
        fh = _Hashed(fh)
    return fh, _read_checked_header(fh, path), path


def _chunks(part: _Part, out: Optional[np.ndarray] = None) -> Iterator[tuple[int, int, np.ndarray]]:
    """The payload as ``(channel index, flat start, chunk)`` in file order.

    A whole read passes ``out``, the payload's final ``(C, H*W)`` array,
    and each plane is read in place as one chunk. Otherwise each chunk is a
    view of one buffer of at most ``_CHUNK_BYTES``, overwritten by the next.
    f32 chunks are checked finite; the file must end with the payload.
    """
    fh, head, path = part
    size = head.height * head.width
    if out is None:
        step = min(_CHUNK_BYTES // head.wire.itemsize, size)
        out = [np.empty(step, dtype=head.wire)] * len(head.channels)
    else:
        step = size
    for channel, plane in enumerate(out):
        for start in range(0, size, step):
            chunk = plane[: min(step, size - start)]
            _check_read(fh.readinto(memoryview(chunk).cast("B")), chunk, head, path)
            yield channel, start, chunk
    if fh.read(1):
        raise _changed(path)


def _read_whole(part: _Part) -> np.ndarray:
    """The payload of ``part`` as its final ``(C, H, W)`` array."""
    _, head, _ = part
    planes = np.empty((len(head.channels), head.height, head.width), dtype=head.wire)
    for _ in _chunks(part, planes.reshape(len(planes), -1)):
        pass
    return planes


def load_stack(path: str | Path) -> StackContainer:
    """Read a TMEF1 file, checking the header and payload size before allocating.

    The payload is read once, straight into its final array, so the peak
    memory of a load is about the payload size.
    """
    with ExitStack() as files:
        return _container(_open(files, path, hashed=False))


def load_hashed(path: str | Path) -> tuple[StackContainer, str]:
    """``load_stack`` and the file's SHA-256, both from the one read."""
    with ExitStack() as files:
        part = _open(files, path)
        return _container(part), part[0].sha.hexdigest()


def _container(part: _Part) -> StackContainer:
    _, head, _ = part
    return StackContainer(
        head.channels, _read_whole(part), head.dtype, mpp=head.mpp, halo=head.halo, meta=head.meta
    )


# ---------------------------------------------------------------------------
# Typed adapters
# ---------------------------------------------------------------------------


def container_from_logits(
    stack: LogitStack, mpp: Optional[float] = None, halo: Optional[int] = None
) -> StackContainer:
    names = tuple(VOCABULARY.name_of(c) for c in stack.class_ids)
    return StackContainer(names, stack.planes, "f32", mpp=mpp, halo=halo)


def container_from_labels(
    labels: np.ndarray, mpp: Optional[float] = None
) -> StackContainer:
    return StackContainer(("labels",), labels[None, :, :], "u8", mpp=mpp)


def labels_from_container(container: StackContainer) -> np.ndarray:
    _check_kind(container.dtype, container.channels, "u8", ("labels",), "a label raster")
    return container.planes[0]


def container_from_rgb(he: np.ndarray, mpp: Optional[float] = None) -> StackContainer:
    if he.ndim != 3 or he.shape[2] != 3 or he.dtype != np.uint8:
        raise ContainerError("RGB tile must be (H, W, 3) uint8")
    return StackContainer(_RGB, np.moveaxis(he, 2, 0), "u8", mpp=mpp)


def container_from_instances(
    imap: InstanceMap, mpp: Optional[float] = None
) -> StackContainer:
    types = {
        str(gid): a.teacher_type
        for gid, a in imap.attrs.items()
        if a.teacher_type is not None
    }
    return StackContainer(
        _IDS,
        imap.ids.astype(np.uint32)[None, :, :],
        "u32",
        mpp=mpp,
        meta={"teacher_types": types} if types else {},
    )


def instances_from_container(container: StackContainer) -> InstanceMap:
    _check_kind(container.dtype, container.channels, "u32", _IDS, "an instance map")
    return InstanceMap.from_ids(_signed_ids(container.planes[0]), _teacher_types(container.meta))


def _check_kind(dtype, channels, want_dtype: str, want_channels: tuple, kind: str) -> None:
    if dtype != want_dtype or tuple(channels) != want_channels:
        raise ContainerError(f"not {kind} container")


def _teacher_types(meta: dict) -> dict[int, int]:
    types_doc = meta.get("teacher_types", {})
    try:
        return {int(k): int(v) for k, v in types_doc.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise PayloadValueError(f"bad teacher_types in instance map meta: {exc}") from exc


def _signed_ids(ids: np.ndarray) -> np.ndarray:
    """u32 instance ids as int32, checked below 2**31."""
    ids = ids.view(np.int32)
    if ids.size and ids.min() < 0:  # u32 ids >= 2**31 wrap negative
        raise PayloadValueError("instance ids must be below 2**31")
    return ids


# ---------------------------------------------------------------------------
# Bundle manifest: one JSON document referencing the per-part containers
# ---------------------------------------------------------------------------

BUNDLE_PARTS = ("he", "tissue_logits", "cell_logits", "nuclei")


def save_bundle(bundle, out_dir: str | Path) -> Path:
    """Write a teacher bundle as four containers plus a JSON manifest.

    Returns the manifest path (``bundle.json``); part paths inside the
    manifest are relative to its directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_stack(container_from_rgb(bundle.he, bundle.mpp), out_dir / "he.tmef")
    save_stack(
        container_from_logits(bundle.tissue_logits, bundle.mpp, bundle.halo),
        out_dir / "tissue_logits.tmef",
    )
    save_stack(
        container_from_logits(bundle.cell_logits, bundle.mpp, bundle.halo),
        out_dir / "cell_logits.tmef",
    )
    save_stack(container_from_instances(bundle.nuclei, bundle.mpp), out_dir / "nuclei.tmef")
    manifest = {
        "he": "he.tmef",
        "tissue_logits": "tissue_logits.tmef",
        "cell_logits": "cell_logits.tmef",
        "nuclei": "nuclei.tmef",
        "candidates": [list(c) for c in bundle.mitosis_candidates],
        "mpp": bundle.mpp,
        "halo": bundle.halo,
    }
    path = out_dir / "bundle.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return path


def _parse_manifest(raw: bytes, manifest_path: Path) -> tuple[dict, dict[str, Path]]:
    """The checked manifest and its part paths, resolved against its directory."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContainerError(f"{manifest_path}: unreadable bundle manifest: {exc}") from exc
    where = f"{manifest_path}: bundle manifest"
    if not isinstance(doc, dict):
        raise ContainerError(f"{where} must be a JSON object")
    bad = [k for k in BUNDLE_PARTS if not isinstance(doc.get(k), str)]
    if bad:
        raise ContainerError(f"{where} needs file names for parts {bad}")
    candidates = doc.get("candidates", [])
    if not isinstance(candidates, list) or not all(
        isinstance(c, list) and len(c) == 3 and all(map(_is_number, c))
        for c in candidates
    ):
        raise ContainerError(f"{where} candidates must be [x, y, score] numbers")
    check_scale(doc.get("mpp"), doc.get("halo"), where, ContainerError)
    return doc, {k: manifest_path.parent / doc[k] for k in BUNDLE_PARTS}


# ---------------------------------------------------------------------------
# Readers: every byte checked; streamed reads hash and reduce
# ---------------------------------------------------------------------------


def _read_instances(part: _Part, types: dict[int, int]) -> InstanceMap:
    """The instance map of a checked u32 ``part``, read chunk by chunk:
    only the flat index and id of its nonzero pixels are kept."""
    _, head, _ = part
    index, ids = [], []
    for _, start, chunk in _chunks(part):
        chunk = _signed_ids(chunk)
        at = np.flatnonzero(chunk != 0)  # a bool mask: ~8x faster than on the ints
        index.append(at + start)
        ids.append(chunk[at])
    return InstanceMap.from_pixels(
        (head.height, head.width), np.concatenate(index), np.concatenate(ids), types
    )


def _digests(parts) -> dict[str, str]:
    return {str(path): fh.sha.hexdigest() for fh, _, path in parts}


def scan_stack(path: str | Path) -> tuple[dict, str]:
    """Check a TMEF1 file end to end in one pass, one chunk at a time.

    Returns its header as ``save_stack`` wrote it and its SHA-256; raises as
    ``load_stack`` would, without allocating the payload.
    """
    with ExitStack() as files:
        fh, head, path = part = _open(files, Path(path))
        _drain(part)
    return head.doc(), fh.sha.hexdigest()


def _logit_class_ids(name: str, head: _Header, wanted: Sequence[int]) -> tuple[int, ...]:
    """The class ids of a logit part's channels, once its header is checked
    to be f32 and to name each of ``wanted`` once."""
    from .aggregate import check_roster  # deferred: aggregate is a heavier import

    if head.dtype != "f32":
        raise DtypeError(f"{name} must be f32, not {head.dtype}")
    class_ids = tuple(VOCABULARY.resolve(c) for c in head.channels)
    check_roster(name, class_ids, wanted)
    return class_ids


def _class_blocks(part: _Part, ids: tuple[int, ...]) -> Iterator[tuple[int, int, np.ndarray]]:
    """A logit part's chunks as ``(class id, flat start, chunk)`` blocks."""
    for channel, start, chunk in _chunks(part):
        yield ids[channel], start, chunk


def _aligned_blocks(
    fd: int, part: _Part, ids: tuple[int, ...]
) -> Iterator[tuple[int, dict[int, np.ndarray]]]:
    """A logit part's planes as aligned blocks ``(flat start, {class id:
    block})``, read by positioned reads on ``fd``; the blocks of one start
    share ``_CHUNK_BYTES``, each is checked finite and overwritten by the next."""
    _, head, path = part
    size, item = head.height * head.width, head.wire.itemsize
    step = max(1, min(_CHUNK_BYTES // (item * len(ids)), size))
    bufs = [np.empty(step, dtype=head.wire) for _ in ids]
    for start in range(0, size, step):
        blocks = [buf[: min(step, size - start)] for buf in bufs]
        for channel, block in enumerate(blocks):
            at = head.offset + (channel * size + start) * item
            _check_read(os.preadv(fd, [memoryview(block).cast("B")], at), block, head, path)
        yield start, dict(zip(ids, blocks))


def _drain(part: _Part) -> None:
    """Read ``part`` to its end through ``_chunks``, for its checks and hash."""
    for _ in _chunks(part):
        pass


class BundleReader(ExitStack):
    """A teacher bundle read from disk, H&E first.

    Opening reads the manifest and all four headers, checks them against
    each other with the checks ``TeacherBundle.validate`` uses before any
    payload is allocated, and reads H&E into ``he``. ``reduce`` reads
    nuclei, keeping their nonzero pixels, then the cell logits through one
    buffer of at most ``_CHUNK_BYTES``, where every chunk is hashed, checked
    finite and reduced. It returns the ``FusionInputs`` and fills
    ``digests`` (the SHA-256 of the manifest and of each part, keyed by path
    as ``str``).

    The tissue logits are read twice. The tissue contest needs the three
    planes at the same pixels, and in the file they lie one after another,
    so ``reduce`` reads aligned blocks of all three by positioned reads on
    a duplicate of the file's descriptor and checks each finite; no plane
    is held. Meanwhile a thread reads the file once more in file order
    through ``_chunks``, for the SHA-256 and the size and trailing-byte
    checks; that read mostly comes from the page cache.

    It is an ``ExitStack`` holding the part files open: leaving its ``with``
    block, or ``close()``, closes them.
    """

    _hashed = True  # whether every byte read feeds ``digests``

    def __init__(self, manifest_path: str | Path):
        # deferred: aggregate is a heavier import
        from .aggregate import CELL_IDS, TISSUE_IDS, check_candidates, check_part

        super().__init__()
        manifest_path = Path(manifest_path)
        raw = manifest_path.read_bytes()
        doc, parts = _parse_manifest(raw, manifest_path)
        self.candidates = tuple(tuple(map(float, c)) for c in doc.get("candidates", []))
        self.halo = doc.get("halo") or 0
        self.mpp = DEFAULT_MPP if doc.get("mpp") is None else float(doc["mpp"])
        self.digests = {str(manifest_path): hashlib.sha256(raw).hexdigest()} if self._hashed else {}
        with ExitStack() as files:  # closes the files if opening fails
            self._parts = {k: _open(files, p, self._hashed) for k, p in parts.items()}
            heads = {k: head for k, (_, head, _) in self._parts.items()}
            he_head, ids_head = heads["he"], heads["nuclei"]
            frame = (he_head.height, he_head.width)
            self._class_ids = {}
            try:
                _check_kind(he_head.dtype, he_head.channels, "u8", _RGB, "an RGB tile")
                _check_kind(ids_head.dtype, ids_head.channels, "u32", _IDS, "an instance map")
                check_part("nuclei", (ids_head.height, ids_head.width), frame)
                self._types = _teacher_types(ids_head.meta)
                for name, wanted in (("tissue_logits", TISSUE_IDS), ("cell_logits", CELL_IDS)):
                    head = heads[name]
                    self._class_ids[name] = _logit_class_ids(name, head, wanted)
                    check_part(name, (head.height, head.width), frame)
                check_candidates(self.candidates, frame, self.halo)
            except (ValueError, UnknownClassError) as exc:
                raise ContainerError(f"{manifest_path}: {exc}") from exc

            self.he = np.empty(frame + (3,), dtype=np.uint8)
            he_px = self.he.reshape(-1, 3)
            for channel, start, chunk in _chunks(self._parts["he"]):
                he_px[start : start + chunk.size, channel] = chunk
            self.push(files.pop_all())  # the files stay open for reduce

    def reduce(self):
        """Read nuclei and the logit files: the bundle's ``FusionInputs``."""
        from concurrent.futures import ThreadPoolExecutor  # deferred: only reduce starts a thread

        from .aggregate import fusion_inputs

        tissue = self._parts["tissue_logits"]
        positioned = self.enter_context(open(os.dup(tissue[0].fileno()), "rb", buffering=0))
        with ThreadPoolExecutor(max_workers=1) as pool:  # leaving waits for the drain
            drain = pool.submit(_drain, tissue)
            inputs = fusion_inputs(
                self.he,
                _read_instances(self._parts["nuclei"], self._types),
                _aligned_blocks(positioned.fileno(), tissue, self._class_ids["tissue_logits"]),
                _class_blocks(self._parts["cell_logits"], self._class_ids["cell_logits"]),
                self.candidates,
            )
        drain.result()  # raises what the drain's checks found
        self.digests.update(_digests(self._parts.values()))
        return inputs


class _Unhashed(BundleReader):
    """A ``BundleReader`` that hashes nothing, for ``load_bundle``."""

    _hashed = False


def load_bundle(manifest_path: str | Path):
    """Load a teacher bundle whole from its JSON manifest.

    It opens the bundle as ``BundleReader`` does, so every header is checked
    against the others before any payload is allocated, then reads nuclei
    and both logit stacks whole. Nothing is hashed.
    """
    from .aggregate import TeacherBundle  # deferred: aggregate is a heavier import

    with _Unhashed(manifest_path) as reader:

        def stack(name: str) -> LogitStack:
            return LogitStack(reader._class_ids[name], _read_whole(reader._parts[name]))

        return TeacherBundle(
            he=reader.he,
            tissue_logits=stack("tissue_logits"),
            cell_logits=stack("cell_logits"),
            nuclei=_read_instances(reader._parts["nuclei"], reader._types),
            mitosis_candidates=reader.candidates,
            halo=reader.halo,
            mpp=reader.mpp,
        )


class StudentReader(ExitStack):
    """A student logit file, and for panoptic mode its nuclei, read once.

    Opening reads both headers and checks them before any payload is
    allocated: the student must be f32 and carry every vocabulary class
    once, the nuclei an instance map of the student's dimensions.
    ``nuclei()`` reads the instance map; ``blocks()`` reads the student
    through one buffer of at most ``_CHUNK_BYTES`` as ``(class id, flat
    start, chunk)`` blocks, each hashed and checked finite, for
    ``postprocess.reduce_force`` / ``reduce_panoptic``. Once both are read,
    ``digests`` holds the SHA-256 of each file, keyed by path as ``str``.
    """

    def __init__(self, student_path: str | Path, nuclei_path: str | Path | None = None):
        super().__init__()
        with ExitStack() as files:  # closes the files if opening fails
            self._parts = [_open(files, Path(student_path))]
            if nuclei_path is not None:
                self._parts.append(_open(files, Path(nuclei_path)))
            head = self._parts[0][1]
            try:
                self.class_ids = _logit_class_ids("student logits", head, VOCABULARY.ids)
                if nuclei_path is not None:
                    ids_head = self._parts[1][1]
                    _check_kind(ids_head.dtype, ids_head.channels, "u32", _IDS, "an instance map")
                    if (ids_head.height, ids_head.width) != (head.height, head.width):
                        raise ValueError("nuclei and logits dimensions differ")
                    self._types = _teacher_types(ids_head.meta)
            except (ValueError, UnknownClassError) as exc:
                raise ContainerError(f"{student_path}: {exc}") from exc
            self.push(files.pop_all())
        self.shape = (head.height, head.width)
        self.mpp = head.mpp

    def nuclei(self) -> InstanceMap:
        return _read_instances(self._parts[1], self._types)

    def blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        return _class_blocks(self._parts[0], self.class_ids)

    @property
    def digests(self) -> dict[str, str]:
        return _digests(self._parts)
