"""Binary artifact container with a JSON manifest sidecar.

Layout of the binary file:

    magic   6 bytes  b"DRRHO1"
    version u16 LE
    kind    u16 LE   (dataset=1, cache=2, model=3)
    count   u32 LE   number of named arrays
    per array: name_len u16 LE, name utf-8, ndim u8, dims u32 LE each
    payloads: float64 LE, C order, concatenated in array order

``_header`` is the one encoding of all before the payloads. The sidecar
``<path>.json`` lists the arrays (names and shapes, in order), carries what
the stored object writes as meta (seeds, dims, source ids) and a SHA-256
checksum of the binary file. The reader rebuilds the header from that list
and requires the binary to begin with it. Round trips are bit-exact:
payloads are raw float64 bytes and metadata floats survive JSON via repr.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np

from .errors import ChecksumError, FormatError, VersionError

MAGIC = b"DRRHO1"
FORMAT_VERSION = 1

KIND_DATASET = 1
KIND_CACHE = 2
KIND_MODEL = 3
# Kind 4 was the retired trainer checkpoint; never reuse it, so an old trainer.ckpt loads as no kind.

_KIND_NAMES = {
    KIND_DATASET: "dataset",
    KIND_CACHE: "cache",
    KIND_MODEL: "model",
}


def manifest_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def _header(kind: int, entries) -> bytes:
    """The binary header of a ``kind`` container of ``(name, shape)`` pairs."""
    parts = [MAGIC, struct.pack("<HHI", FORMAT_VERSION, kind, len(entries))]
    for name, shape in entries:
        enc = str.encode(name, "utf-8")
        parts += [struct.pack("<H", len(enc)), enc, struct.pack(f"<B{len(shape)}I", len(shape), *shape)]
    return b"".join(parts)


def write_container(path: str | Path, kind: int, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named float64 arrays plus a manifest sidecar."""
    path = Path(path)
    arrays = {name: np.ascontiguousarray(np.asarray(arr, dtype=np.float64)) for name, arr in arrays.items()}
    blob = _header(kind, [(name, arr.shape) for name, arr in arrays.items()])
    blob += b"".join(arr.astype("<f8").tobytes(order="C") for arr in arrays.values())
    path.write_bytes(blob)
    manifest = {
        "format": "drrho-container",
        "version": FORMAT_VERSION,
        "kind": _KIND_NAMES[kind],
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()],
        "checksum_sha256": hashlib.sha256(blob).hexdigest(),
        "meta": meta or {},
    }
    manifest_path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def read_container(path: str | Path, expect_kind: int | None = None) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container, validating magic, version, structure, and checksum.

    Returns (arrays, meta). Raises FormatError / VersionError /
    ChecksumError for the corresponding defect, in that check order.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < 14 or blob[:6] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a drrho container")
    version, kind = struct.unpack_from("<HH", blob, 6)
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    if expect_kind is not None and kind != expect_kind:
        raise FormatError(f"{path}: kind {_KIND_NAMES.get(kind, kind)}, expected {_KIND_NAMES[expect_kind]}")

    mpath = manifest_path(path)
    if not mpath.exists():
        raise FormatError(f"{path}: missing manifest sidecar {mpath.name}")
    try:
        manifest = json.loads(mpath.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{mpath}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if not isinstance(manifest.get("meta", {}), dict):
        raise FormatError(f"{path}: manifest meta is not a JSON object")
    entries = manifest.get("arrays", [])
    if not isinstance(entries, list):
        raise FormatError(f"{path}: manifest arrays is not a JSON list")
    for pos, a in enumerate(entries):
        if not (isinstance(a, dict) and "name" in a and isinstance(a.get("shape"), list)):
            raise FormatError(f"{path}: manifest arrays[{pos}] is not an object with a name and a list shape")
    try:
        header = _header(kind, [(a["name"], a["shape"]) for a in entries])
    except (TypeError, UnicodeEncodeError, struct.error) as exc:
        raise FormatError(f"{path}: manifest arrays have no binary header ({exc})") from exc
    if not blob.startswith(header):
        raise FormatError(f"{path}: manifest arrays disagree with binary header")

    sizes = [math.prod(a["shape"]) for a in entries]  # Python ints: no product of u32 dims wraps
    expected_len = len(header) + 8 * sum(sizes)
    if len(blob) != expected_len:
        raise FormatError(f"{path}: payload length {len(blob)} bytes, expected {expected_len}")
    if hashlib.sha256(blob).hexdigest() != manifest.get("checksum_sha256"):
        raise ChecksumError(f"{path}: checksum mismatch")

    arrays, offset = {}, len(header)
    for a, size in zip(entries, sizes):  # a dim given as JSON true packs, and reads, as 1
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape([int(d) for d in a["shape"]])
        arrays[a["name"]] = arr.astype(np.float64)  # own, writable copy
        offset += 8 * size
    return arrays, manifest.get("meta", {})


def require_arrays(path: str | Path, arrays: dict[str, np.ndarray], names) -> None:
    """FormatError naming the path and the first of ``names`` not in ``arrays``."""
    for name in names:
        if name not in arrays:
            raise FormatError(f"{path}: container missing array {name!r}")


def json_type_error(value, types: tuple[type, ...]) -> str | None:
    """Why ``value`` is not of one of the JSON ``types`` (``bool`` only where
    listed, an ``int`` within float range wherever ``float`` is), or None."""
    types = (*types, int) if float in types else types
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        return f"is {type(value).__name__}, expected {' or '.join(t.__name__ for t in types)}"
    if float in types and isinstance(value, int) and abs(value) > sys.float_info.max:
        return "is an int too large for a float"


def require_meta(path: str | Path, meta: dict, spec: dict[str, tuple[type, ...]]) -> dict:
    """The named entries of a manifest's meta, each of one of its listed JSON
    types by ``json_type_error``; FormatError naming the first missing or
    mistyped one."""
    for key, types in spec.items():
        if key not in meta:
            raise FormatError(f"{path}: manifest meta missing {key!r}")
        if why := json_type_error(meta[key], types):
            raise FormatError(f"{path}: manifest meta {key!r} {why}")
    return {key: meta[key] for key in spec}


def require_derived(path: str | Path, meta: dict, derived: dict) -> None:
    """FormatError naming the first entry of ``derived`` (what the loaded object
    writes) that ``meta`` lacks, types otherwise by ``require_meta`` or differs in."""
    require_meta(path, meta, {key: (type(value),) for key, value in derived.items()})
    for key, value in derived.items():
        if meta[key] != value:
            raise FormatError(f"{path}: manifest meta {key!r} is {meta[key]!r}, but the file gives {value!r}")
