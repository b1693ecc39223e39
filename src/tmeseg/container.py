"""TMEF1 stack container: a minimal bit-exact raster file format.

Layout: a little-endian u32 header length, a UTF-8 JSON header, then the
channel planes concatenated row-major in little-endian byte order. The
header carries ``{"magic": "TMEF1", "width", "height", "dtype", "channels",
"mpp"?, "halo"?, "meta"?}`` with dtype one of f32 / u8 / u32. Round-trips
are lossless; f32 payloads must be finite.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .raster import InstanceMap, LogitStack, all_finite
from .taxonomy import VOCABULARY

MAGIC = "TMEF1"

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
        if self.dtype not in _DTYPES:
            raise DtypeError(f"unknown dtype {self.dtype!r}; expected f32/u8/u32")
        self.planes = np.ascontiguousarray(self.planes, dtype=_NATIVE[self.dtype])
        if self.planes.ndim != 3 or self.planes.shape[0] != len(self.channels):
            raise ContainerError("planes must be (C, H, W) with one name per channel")
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


def save_stack(container: StackContainer, path: str | Path) -> None:
    header = json.dumps(container.header(), sort_keys=True).encode("utf-8")
    payload = container.planes.astype(_DTYPES[container.dtype], copy=False).tobytes(
        order="C"
    )
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(payload)


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


def load_stack(path: str | Path) -> StackContainer:
    """Read a TMEF1 file, checking the header and payload size before allocating.

    The payload is read once, straight into its final array, so the peak
    memory of a load is about the payload size.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        hlen, header = _read_header(fh, path, file_size)
        if header.get("magic") != MAGIC:
            raise MagicError(
                f"{path}: bad magic {header.get('magic')!r}; expected {MAGIC!r}"
            )
        dtype = header.get("dtype")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise DtypeError(f"{path}: unknown dtype {dtype!r}; expected f32/u8/u32")
        width, height = header.get("width"), header.get("height")
        channels = header.get("channels")
        if not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1
            for v in (width, height)
        ):
            raise ContainerError(f"{path}: width and height must be positive integers")
        if (
            not isinstance(channels, list)
            or not channels
            or not all(isinstance(c, str) for c in channels)
        ):
            raise ContainerError(f"{path}: channels must be a non-empty list of names")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ContainerError(f"{path}: meta must be a JSON object")
        wire = np.dtype(_DTYPES[dtype])
        expected = width * height * len(channels) * wire.itemsize
        actual = file_size - 4 - hlen
        if actual != expected:
            raise TruncatedPayloadError(
                f"{path}: expected {expected} payload bytes, found {actual}"
            )
        planes = np.empty((len(channels), height, width), dtype=wire)
        got = fh.readinto(memoryview(planes).cast("B"))
        if got != expected or fh.read(1):  # the file changed after fstat
            raise TruncatedPayloadError(
                f"{path}: payload size changed while reading (expected {expected} bytes)"
            )
    if dtype == "f32" and not all_finite(planes):
        raise PayloadValueError(f"{path}: f32 payload contains NaN or Inf")
    return StackContainer(
        channels=tuple(channels),
        planes=planes,
        dtype=dtype,
        mpp=header.get("mpp"),
        halo=header.get("halo"),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Typed adapters
# ---------------------------------------------------------------------------


def container_from_logits(
    stack: LogitStack, mpp: Optional[float] = None, halo: Optional[int] = None
) -> StackContainer:
    names = tuple(VOCABULARY.name_of(c) for c in stack.class_ids)
    return StackContainer(names, stack.planes, "f32", mpp=mpp, halo=halo)


def logits_from_container(container: StackContainer) -> LogitStack:
    """Resolve channel names against the vocabulary (raises on unknowns)."""
    ids = tuple(VOCABULARY.resolve(name) for name in container.channels)
    return LogitStack(ids, container.planes)


def container_from_labels(
    labels: np.ndarray, mpp: Optional[float] = None
) -> StackContainer:
    return StackContainer(("labels",), labels[None, :, :], "u8", mpp=mpp)


def labels_from_container(container: StackContainer) -> np.ndarray:
    if container.dtype != "u8" or container.channels != ("labels",):
        raise ContainerError("not a label raster container")
    return container.planes[0]


def container_from_rgb(he: np.ndarray, mpp: Optional[float] = None) -> StackContainer:
    if he.ndim != 3 or he.shape[2] != 3 or he.dtype != np.uint8:
        raise ContainerError("RGB tile must be (H, W, 3) uint8")
    return StackContainer(("r", "g", "b"), np.moveaxis(he, 2, 0), "u8", mpp=mpp)


def rgb_from_container(container: StackContainer) -> np.ndarray:
    if container.dtype != "u8" or container.channels != ("r", "g", "b"):
        raise ContainerError("not an RGB tile container")
    return np.ascontiguousarray(np.moveaxis(container.planes, 0, 2))


def container_from_instances(
    imap: InstanceMap, mpp: Optional[float] = None
) -> StackContainer:
    types = {
        str(gid): a.teacher_type
        for gid, a in imap.attrs.items()
        if a.teacher_type is not None
    }
    return StackContainer(
        ("instance_ids",),
        imap.ids.astype(np.uint32)[None, :, :],
        "u32",
        mpp=mpp,
        meta={"teacher_types": types} if types else {},
    )


def instances_from_container(container: StackContainer) -> InstanceMap:
    if container.dtype != "u32" or container.channels != ("instance_ids",):
        raise ContainerError("not an instance map container")
    types_doc = container.meta.get("teacher_types", {})
    try:
        types = {int(k): int(v) for k, v in types_doc.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise PayloadValueError(f"bad teacher_types in instance map meta: {exc}") from exc
    ids = container.planes[0].view(np.int32)
    if ids.size and ids.min() < 0:  # u32 ids >= 2**31 wrap negative
        raise PayloadValueError("instance ids must be below 2**31")
    return InstanceMap.from_ids(ids, types)


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _read_manifest(manifest_path: Path) -> tuple[dict, dict[str, Path]]:
    """The checked manifest and its part paths, resolved against its directory."""
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ContainerError(f"{manifest_path}: unreadable bundle manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContainerError("bundle manifest must be a JSON object")
    bad = [k for k in BUNDLE_PARTS if not isinstance(doc.get(k), str)]
    if bad:
        raise ContainerError(f"bundle manifest needs file names for parts {bad}")
    candidates = doc.get("candidates", [])
    if not isinstance(candidates, list) or not all(
        isinstance(c, list) and len(c) == 3 and all(map(_is_number, c))
        for c in candidates
    ):
        raise ContainerError("bundle manifest candidates must be [x, y, score] numbers")
    for key in ("mpp", "halo"):
        if doc.get(key) is not None and not _is_number(doc[key]):
            raise ContainerError(f"bundle manifest {key} must be a number")
    return doc, {k: manifest_path.parent / doc[k] for k in BUNDLE_PARTS}


def bundle_part_paths(manifest_path: str | Path) -> dict[str, Path]:
    """Resolve the manifest's part files relative to its directory."""
    return _read_manifest(Path(manifest_path))[1]


def load_bundle(manifest_path: str | Path):
    """Load a teacher bundle from its JSON manifest."""
    from .aggregate import TeacherBundle  # deferred: aggregate is a heavier import

    doc, parts = _read_manifest(Path(manifest_path))
    return TeacherBundle(
        he=rgb_from_container(load_stack(parts["he"])),
        tissue_logits=logits_from_container(load_stack(parts["tissue_logits"])),
        cell_logits=logits_from_container(load_stack(parts["cell_logits"])),
        nuclei=instances_from_container(load_stack(parts["nuclei"])),
        mitosis_candidates=tuple(tuple(c) for c in doc.get("candidates", [])),
        halo=int(doc.get("halo") or 0),
        mpp=float(doc.get("mpp") or 0.25),
    )
