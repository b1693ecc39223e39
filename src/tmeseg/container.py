"""TMEF1 stack container: a minimal bit-exact raster file format.

Layout: a little-endian u32 header length, a UTF-8 JSON header, then the
channel planes concatenated row-major in little-endian byte order. The
header carries ``{"magic": "TMEF1", "width", "height", "dtype", "channels",
"mpp"?, "halo"?, "meta"?}`` with dtype one of f32 / u8 / u32. Round-trips
are lossless; f32 payloads must be finite. One header rule, ``_Header``,
checks every header a file holds and every ``StackContainer``, so
``save_stack`` writes only headers that load.

Every reader opens a file through one function, ``_open``, which checks
its header against ``fstat`` and, where a kind of data is asked for (an
RGB tile, a label raster or an instance map), checks that kind on the
header, all before any payload is read. The payload then goes through one
loop, ``_chunks``, which checks the size and f32 finiteness and, for a
hashed read, feeds every byte to a SHA-256. A whole read fills the final
array plane by plane; a streamed read goes through one buffer of at most
4 MB. Each file is read once, except a bundle's H&E and tissue logits,
which are also read in row slabs by positioned reads (see ``BundleReader``):

* ``load_stack`` reads one file of any kind whole, unhashed.
* ``load_labels`` reads a label raster whole, each label a class id, and
  ``load_instances`` an instance map, keeping only its nonzero pixels; each
  returns the file's SHA-256, taken in the same read.
* ``BundleReader`` reads a teacher bundle: opening it checks every header
  against the others before allocating any payload, and reads none;
  ``rows`` reads rows of H&E or of the tissue logits, for the blur's bands
  and the tissue contest's slabs; ``reduce`` reads nuclei as
  ``load_instances`` does, reduces each logit file and hashes H&E, so no
  H&E frame, no logit plane and no id raster sits in memory.
  ``load_bundle`` opens a bundle the same way, then reads H&E, nuclei and
  both logit stacks whole.
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
from typing import BinaryIO, Iterator, Optional

import numpy as np

from .config import DEFAULT_MPP, _is_int, _is_number, check_scale
from .raster import InstanceMap, LogitStack, all_finite
from .taxonomy import VOCABULARY, UnknownClassError

MAGIC = "TMEF1"
_CHUNK_BYTES = 1 << 22  # the streamed reader's buffer: 4 MB at most
_RGB = ("r", "g", "b")
_IDS = ("instance_ids",)
# the kinds of data a reader can ask ``_open`` for: dtype, channels, name
_KINDS = {
    "rgb": ("u8", _RGB, "an RGB tile"),
    "labels": ("u8", ("labels",), "a label raster"),
    "instances": ("u32", _IDS, "an instance map"),
}

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
        shape = np.shape(self.planes)
        if len(shape) != 3 or shape[0] != len(self.channels):
            raise ContainerError("planes must be (C, H, W) with one name per channel")
        # the header rule, so save_stack writes only headers that load
        _Header(self.dtype, shape[1], shape[2], self.channels, self.mpp, self.halo, self.meta)
        self.planes = np.ascontiguousarray(self.planes, dtype=_NATIVE[self.dtype])

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
    # before the file is opened, so a refused stack leaves no file behind
    if container.dtype == "f32" and not all_finite(container.planes):
        raise PayloadValueError(f"{path}: f32 payload contains NaN or Inf")
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
    """A TMEF1 header, checked when built: the one header rule, which a
    ``StackContainer`` and every file read share. Errors name ``where``,
    the file or ``"container"`` for a stack in memory."""

    dtype: str
    height: int
    width: int
    channels: tuple[str, ...]
    mpp: Optional[float]
    halo: Optional[int]
    meta: dict
    offset: int = 0  # of the first payload byte in the file
    where: str | Path = field(default="container", compare=False, repr=False)

    def __post_init__(self):
        where = self.where
        if not isinstance(self.dtype, str) or self.dtype not in _DTYPES:
            raise DtypeError(f"{where}: unknown dtype {self.dtype!r}; expected f32/u8/u32")
        if not all(_is_int(v) and v >= 1 for v in (self.height, self.width)):
            raise ContainerError(f"{where}: need integer, positive height and width")
        if not self.channels or not all(isinstance(c, str) for c in self.channels):
            raise ContainerError(f"{where}: channels must be a non-empty list of names")
        if len(set(self.channels)) != len(self.channels):
            raise ContainerError(f"{where}: channel names must be distinct")
        if not isinstance(self.meta, dict):
            raise ContainerError(f"{where}: meta must be a JSON object")
        check_scale(self.mpp, self.halo, where, ContainerError)

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

    Everything is checked against the header rule and ``fstat`` before any
    payload-sized allocation.
    """
    file_size = os.fstat(fh.fileno()).st_size
    hlen, header = _read_header(fh, path, file_size)
    if header.get("magic") != MAGIC:
        raise MagicError(f"{path}: bad magic {header.get('magic')!r}; expected {MAGIC!r}")
    channels = header.get("channels")
    if not isinstance(channels, list):
        raise ContainerError(f"{path}: channels must be a non-empty list of names")
    head = _Header(
        header.get("dtype"), header.get("height"), header.get("width"), tuple(channels),
        header.get("mpp"), header.get("halo"), header.get("meta", {}), 4 + hlen, path,
    )
    expected = head.height * head.width * len(channels) * head.wire.itemsize
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


def _open(
    files: ExitStack, path: str | Path, kind: Optional[str] = None, hashed: bool = True
) -> _Part:
    """Open ``path`` in ``files``, hashed or not; read and check its header,
    and that it holds ``kind`` of ``_KINDS`` if one is given."""
    fh = files.enter_context(open(path, "rb"))
    if hashed:
        fh = _Hashed(fh)
    head = _read_checked_header(fh, path)
    if kind is not None:
        dtype, channels, name = _KINDS[kind]
        if (head.dtype, head.channels) != (dtype, channels):
            raise ContainerError(f"{path}: not {name} container")
        if kind == "instances":
            _teacher_types(head.meta, path)
    return fh, head, path


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
        _, head, _ = part = _open(files, path, hashed=False)
        return StackContainer(
            head.channels, _read_whole(part), head.dtype, mpp=head.mpp, halo=head.halo,
            meta=head.meta,
        )


def load_labels(path: str | Path) -> tuple[np.ndarray, Optional[float], str]:
    """A label raster read whole: ``(labels, mpp, SHA-256 of the file)``.
    Every label must be a class id of the vocabulary."""
    with ExitStack() as files:
        fh, head, _ = part = _open(files, path, "labels")
        labels = _read_whole(part)[0]
        top = int(labels.max())
        if top >= VOCABULARY.n_classes:
            raise PayloadValueError(f"{path}: label {top} is not a class id")
        return labels, head.mpp, fh.sha.hexdigest()


def load_instances(path: str | Path) -> tuple[InstanceMap, str]:
    """An instance map, keeping only its nonzero pixels, and the file's SHA-256."""
    with ExitStack() as files:
        part = _open(files, path, "instances")
        return _read_instances(part), part[0].sha.hexdigest()


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


def _teacher_types(meta: dict, path: str | Path) -> dict[int, int]:
    types_doc = meta.get("teacher_types", {})
    try:
        return {int(k): int(v) for k, v in types_doc.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise PayloadValueError(f"{path}: bad teacher_types in instance map meta: {exc}") from exc


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


def _read_instances(part: _Part) -> InstanceMap:
    """The instance map of a ``part`` opened as instances, read chunk by
    chunk: only the flat index and id of its nonzero pixels are kept."""
    _, head, path = part
    index, ids = [], []
    for _, start, chunk in _chunks(part):
        chunk = chunk.view(np.int32)
        if chunk.min() < 0:  # u32 ids >= 2**31 wrap negative
            raise PayloadValueError(f"{path}: instance ids must be below 2**31")
        at = np.flatnonzero(chunk != 0)  # a bool mask: ~8x faster than on the ints
        index.append(at + start)
        ids.append(chunk[at])
    return InstanceMap.from_pixels(
        (head.height, head.width), np.concatenate(index), np.concatenate(ids),
        _teacher_types(head.meta, path),
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


def _logit_class_ids(name: str, head: _Header) -> tuple[int, ...]:
    """The class ids of a logit part's channels, once its header is checked
    to be f32."""
    if head.dtype != "f32":
        raise DtypeError(f"{name} must be f32, not {head.dtype}")
    return tuple(VOCABULARY.resolve(c) for c in head.channels)


def _class_blocks(part: _Part, ids: tuple[int, ...]) -> Iterator[tuple[int, int, np.ndarray]]:
    """A logit part's chunks as ``(class id, flat start, chunk)`` blocks."""
    for channel, start, chunk in _chunks(part):
        yield ids[channel], start, chunk


def _read_at(fd: int, part: _Part, out: np.ndarray, item: int) -> None:
    """Fill ``out`` with the payload of ``part`` from item ``item`` on, by
    one positioned read on ``fd``, and check it as ``_chunks`` checks a chunk."""
    _, head, path = part
    at = head.offset + item * head.wire.itemsize
    _check_read(os.preadv(fd, [memoryview(out).cast("B")], at), out, head, path)


def _drain(part: _Part) -> None:
    """Read ``part`` to its end through ``_chunks``, for its checks and hash."""
    for _ in _chunks(part):
        pass


class BundleReader(ExitStack):
    """A teacher bundle read from disk, H&E and tissue in row slabs.

    Opening reads the manifest and all four headers and checks them against
    each other by ``aggregate.check_bundle``, the rule a ``TeacherBundle``
    is checked by when it is built; it allocates no payload and keeps the
    frame's ``shape``. ``rows`` reads rows of H&E or of the tissue logits as
    ``(channels, rows, width)`` planes, by one positioned read per plane on
    a duplicate of the file's descriptor, each read checked as ``_chunks``
    checks a chunk; so ``aggregate``'s bands read their rows of H&E from any
    thread, the tissue contest reads its slabs, and no H&E frame or tissue
    plane is held. ``reduce`` reads nuclei, keeping their nonzero pixels,
    the tissue logits slab by slab, then the cell logits through one buffer
    of at most ``_CHUNK_BYTES``, where every chunk is hashed, checked finite
    and reduced. It returns the ``FusionInputs`` and fills ``digests`` (the
    SHA-256 of the manifest and of each part, keyed by path as ``str``).

    H&E and the tissue logits are read twice: in rows, where their planes
    are needed at the same pixels, and meanwhile by a thread of ``reduce``
    once more in file order through ``_chunks``, for the SHA-256 and the
    size and trailing-byte checks; that read mostly comes from the page
    cache.

    It is an ``ExitStack`` holding the part files open: leaving its ``with``
    block, or ``close()``, closes them.
    """

    _hashed = True  # whether every byte read feeds ``digests``

    def __init__(self, manifest_path: str | Path):
        from .aggregate import _ROSTERS, check_bundle  # deferred: aggregate is a heavier import

        super().__init__()
        manifest_path = Path(manifest_path)
        raw = manifest_path.read_bytes()
        doc, parts = _parse_manifest(raw, manifest_path)
        self.mitosis_candidates = tuple(tuple(map(float, c)) for c in doc.get("candidates", []))
        self.halo = doc.get("halo") or 0
        self.mpp = DEFAULT_MPP if doc.get("mpp") is None else float(doc["mpp"])
        self.digests = {str(manifest_path): hashlib.sha256(raw).hexdigest()} if self._hashed else {}
        with ExitStack() as files:  # closes the files if opening fails
            kinds = {"he": "rgb", "nuclei": "instances"}
            self._parts = {
                k: _open(files, p, kinds.get(k), self._hashed) for k, p in parts.items()
            }
            heads = {k: head for k, (_, head, _) in self._parts.items()}
            self.shape = (heads["he"].height, heads["he"].width)
            try:
                ids = self._class_ids = {k: _logit_class_ids(k, heads[k]) for k in _ROSTERS}
                shapes = {k: ((h.height, h.width), ids.get(k)) for k, h in heads.items()}
                check_bundle(self.shape, shapes, self.mitosis_candidates, self.halo)
            except (ValueError, UnknownClassError) as exc:
                raise ContainerError(f"{manifest_path}: {exc}") from exc
            self._fds = {  # duplicate descriptors, for positioned reads from any thread
                k: files.enter_context(open(os.dup(fh.fileno()), "rb", buffering=0)).fileno()
                for k, (fh, _, _) in self._parts.items()
                if k in ("he", "tissue_logits")
            }
            self.push(files.pop_all())  # the files stay open for rows and reduce

    def rows(self, name: str, top: int, bottom: int) -> np.ndarray:
        """Rows ``[top, bottom)`` of ``he`` or ``tissue_logits`` as
        ``(channels, bottom - top, width)`` planes."""
        _, head, _ = part = self._parts[name]
        planes = np.empty((len(head.channels), bottom - top, head.width), dtype=head.wire)
        for channel, plane in enumerate(planes):
            _read_at(self._fds[name], part, plane, (channel * head.height + top) * head.width)
        return planes

    def reduce(self):
        """Read nuclei and the logit files: the bundle's ``FusionInputs``."""
        from concurrent.futures import ThreadPoolExecutor  # deferred: only reduce starts a thread

        from .aggregate import fusion_inputs

        with ThreadPoolExecutor(max_workers=1) as pool:  # leaving waits for the drains
            drains = [pool.submit(_drain, self._parts[k]) for k in ("he", "tissue_logits")]
            inputs = fusion_inputs(
                _read_instances(self._parts["nuclei"]),
                self,
                self._class_ids["tissue_logits"],
                _class_blocks(self._parts["cell_logits"], self._class_ids["cell_logits"]),
            )
        for drain in drains:
            drain.result()  # raises what the drain's checks found
        self.digests.update(_digests(self._parts.values()))
        return inputs


class _Unhashed(BundleReader):
    """A ``BundleReader`` that hashes nothing, for ``load_bundle``."""

    _hashed = False


def load_bundle(manifest_path: str | Path):
    """Load a teacher bundle whole from its JSON manifest.

    It opens the bundle as ``BundleReader`` does, so every header is checked
    against the others before any payload is allocated, then reads H&E
    whole, interleaving it chunk by chunk, and nuclei and both logit stacks
    into a ``TeacherBundle``, which checks itself as it is built. Nothing is
    hashed.
    """
    from .aggregate import TeacherBundle  # deferred: aggregate is a heavier import

    with _Unhashed(manifest_path) as reader:
        he = np.empty(reader.shape + (3,), dtype=np.uint8)
        pixels = he.reshape(-1, 3)
        for channel, start, chunk in _chunks(reader._parts["he"]):
            pixels[start : start + chunk.size, channel] = chunk

        def stack(name: str) -> LogitStack:
            return LogitStack(reader._class_ids[name], _read_whole(reader._parts[name]))

        return TeacherBundle(
            he=he,
            tissue_logits=stack("tissue_logits"),
            cell_logits=stack("cell_logits"),
            nuclei=_read_instances(reader._parts["nuclei"]),
            mitosis_candidates=reader.mitosis_candidates,
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
        from .aggregate import check_roster  # deferred: aggregate is a heavier import

        super().__init__()
        with ExitStack() as files:  # closes the files if opening fails
            self._parts = [_open(files, Path(student_path))]
            if nuclei_path is not None:
                self._parts.append(_open(files, Path(nuclei_path), "instances"))
            head = self._parts[0][1]
            try:
                self.class_ids = _logit_class_ids("student logits", head)
                check_roster("student logits", self.class_ids, VOCABULARY.ids)
            except (ValueError, UnknownClassError) as exc:
                raise ContainerError(f"{student_path}: {exc}") from exc
            if nuclei_path is not None:
                ids_head = self._parts[1][1]
                if (ids_head.height, ids_head.width) != (head.height, head.width):
                    raise ContainerError(
                        f"{student_path} and {nuclei_path}: nuclei and logits dimensions differ"
                    )
            self.push(files.pop_all())
        self.shape = (head.height, head.width)
        self.mpp = head.mpp

    def nuclei(self) -> InstanceMap:
        return _read_instances(self._parts[1])

    def blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        return _class_blocks(self._parts[0], self.class_ids)

    @property
    def digests(self) -> dict[str, str]:
        return _digests(self._parts)
