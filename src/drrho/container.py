"""Binary artifact container with a JSON manifest sidecar.

Layout of the binary file:

    magic   6 bytes  b"DRRHO1"
    version u16 LE
    kind    u16 LE   (dataset=1, cache=2, model=3, trainer=4)
    count   u32 LE   number of named arrays
    per array: name_len u16 LE, name utf-8, ndim u8, dims u32 LE each
    payloads: float64 LE, C order, concatenated in array order

The sidecar ``<path>.json`` repeats the structural facts (kind, shapes),
carries arbitrary metadata (seeds, dims, source ids), and a SHA-256
checksum of the binary file. Round trips are bit-exact: payloads are raw
float64 bytes and metadata floats survive JSON via repr.
"""

from __future__ import annotations

import hashlib
import json
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
KIND_TRAINER = 4

_KIND_NAMES = {
    KIND_DATASET: "dataset",
    KIND_CACHE: "cache",
    KIND_MODEL: "model",
    KIND_TRAINER: "trainer",
}


def manifest_path(path: str | Path) -> Path:
    return Path(str(path) + ".json")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_container(
    path: str | Path,
    kind: int,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    """Write named float64 arrays plus a manifest sidecar."""
    path = Path(path)
    header = bytearray()
    header += MAGIC
    header += struct.pack("<HH", FORMAT_VERSION, kind)
    header += struct.pack("<I", len(arrays))
    payload = bytearray()
    shapes = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        enc = name.encode("utf-8")
        header += struct.pack("<H", len(enc)) + enc
        header += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            header += struct.pack("<I", dim)
        payload += arr.astype("<f8").tobytes(order="C")
        shapes.append({"name": name, "shape": list(arr.shape)})
    blob = bytes(header) + bytes(payload)
    path.write_bytes(blob)
    manifest = {
        "format": "drrho-container",
        "version": FORMAT_VERSION,
        "kind": _KIND_NAMES[kind],
        "arrays": shapes,
        "checksum_sha256": sha256_hex(blob),
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
        raise FormatError(
            f"{path}: kind {_KIND_NAMES.get(kind, kind)}, expected {_KIND_NAMES[expect_kind]}"
        )
    (count,) = struct.unpack_from("<I", blob, 10)
    offset = 14
    specs = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            specs.append((name, tuple(shape)))
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: truncated or corrupt header") from exc

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
    declared = [(a["name"], tuple(a["shape"])) for a in entries]
    if declared != specs:
        raise FormatError(f"{path}: manifest arrays disagree with binary header")

    expected_len = offset + sum(8 * int(np.prod(s, dtype=np.int64)) for _, s in specs)
    if len(blob) != expected_len:
        raise FormatError(f"{path}: payload length {len(blob)} bytes, expected {expected_len}")
    if sha256_hex(blob) != manifest.get("checksum_sha256"):
        raise ChecksumError(f"{path}: checksum mismatch")

    arrays = {}
    for name, shape in specs:
        size = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(shape)
        arrays[name] = arr.astype(np.float64)  # own, writable copy
        offset += 8 * size
    return arrays, manifest.get("meta", {})


def require_arrays(path: str | Path, arrays: dict[str, np.ndarray], names) -> None:
    """FormatError naming the path and the first of ``names`` not in ``arrays``."""
    for name in names:
        if name not in arrays:
            raise FormatError(f"{path}: container missing array {name!r}")


def require_meta(path: str | Path, meta: dict, spec: dict[str, tuple[type, ...]]) -> dict:
    """The named entries of a manifest's meta, each of one of its listed JSON
    types (``bool`` only where listed, ``int`` wherever ``float`` is);
    FormatError naming the first missing or mistyped one."""
    for key, types in spec.items():
        if key not in meta:
            raise FormatError(f"{path}: manifest meta missing {key!r}")
        value = meta[key]
        if float in types:
            types = (*types, int)
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            expected = " or ".join(t.__name__ for t in types)
            raise FormatError(f"{path}: manifest meta {key!r} is {type(value).__name__}, expected {expected}")
        if float in types and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise FormatError(f"{path}: manifest meta {key!r} is an int too large for a float")
    return {key: meta[key] for key in spec}
