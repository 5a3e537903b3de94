"""Hostile edits to every container kind: a flipped byte in either file, a
truncated binary, or a manifest key deleted, retyped or re-valued, drawn at
random and, per key, enumerated. The matching loader either returns or
raises a ``DrrhoError``; nothing else may escape. A flipped header byte, a
binary cut inside its header, or a declared size beyond 64 bits raises a
``FormatError``, ``VersionError`` or ``ChecksumError``."""

import functools
import hashlib
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrho import container, data, encoder
from drrho.errors import ChecksumError, DrrhoError, FormatError, VersionError


def _dataset():
    return data.generate_synthetic(12, 4, 3, 2, 0.1, 0.25, seed=0)


KINDS = {
    "dataset": (lambda path: data.save_dataset(_dataset(), path), data.load_dataset),
    "cache": (
        lambda path: data.save_cache(data.build_reference_cache(_dataset(), encoder.init_model(3, 4, 3, seed=1)), path),
        data.load_cache,
    ),
    "model": (lambda path: encoder.save_model(encoder.init_model(3, 4, 3, seed=2), path), encoder.load_model),
}

_BIG = 10**400  # an int that no float holds
# JSON has one number type; Python reads it back as int or float.
_NUMBERS = st.one_of(
    st.sampled_from([0, -1, 2**63, _BIG, -_BIG, 0.0, -0.0, 5e-324, 1e308, float("inf"), float("nan")]),
    st.integers(),
    st.floats(),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=8))
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _json_type(value) -> str:
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value).__name__


def _same_type(value):
    """Another JSON value of ``value``'s JSON type."""
    return {
        "bool": st.booleans(),
        "number": _NUMBERS,
        "str": st.text(max_size=20),
        "list": st.lists(_JSON, max_size=3),
        "dict": st.dictionaries(st.text(max_size=4), _JSON, max_size=3),
    }.get(_json_type(value), st.none())


def _key_paths(manifest: dict) -> list[list[tuple]]:
    """The keys an edit may target, in three groups: top-level keys, meta
    keys, and arrays entries with their keys."""
    arrays = [("arrays", i) for i in range(len(manifest["arrays"]))]
    arrays += [("arrays", i, key) for i, entry in enumerate(manifest["arrays"]) for key in entry]
    return [[(key,) for key in manifest], [("meta", key) for key in manifest["meta"]], arrays]


@functools.cache
def _pristine(kind: str) -> tuple[bytes, bytes]:
    """The kind's binary and manifest bytes, written through the library."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        KINDS[kind][0](path)
        return path.read_bytes(), container.manifest_path(path).read_bytes()


def _mutate(blob: bytes, manifest: bytes, draw) -> tuple[bytes, bytes]:
    op = draw(st.sampled_from(["flip", "truncate", "edit"]), label="op")
    if op == "flip":
        which = draw(st.sampled_from(["binary", "manifest"]), label="file")
        buf = bytearray(blob if which == "binary" else manifest)
        buf[draw(st.integers(0, len(buf) - 1), label="at")] ^= draw(st.integers(1, 255), label="mask")
        return (bytes(buf), manifest) if which == "binary" else (blob, bytes(buf))
    if op == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1), label="length")], manifest
    doc = json.loads(manifest)
    group = draw(st.sampled_from(_key_paths(doc)), label="group")
    *parents, key = draw(st.sampled_from(group), label="key")
    parent = doc
    for step in parents:
        parent = parent[step]
    edit = draw(st.sampled_from(["delete", "retype", "revalue"]), label="edit")
    old = parent[key]
    if edit == "delete":
        del parent[key]
    elif edit == "retype":
        parent[key] = draw(_JSON.filter(lambda v: _json_type(v) != _json_type(old)), label="value")
    else:
        parent[key] = draw(_same_type(old), label="value")
    return blob, json.dumps(doc).encode()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(draws=st.data())
def test_mutated_container_loads_or_raises_drrho_error(kind, draws):
    blob, manifest = _mutate(*_pristine(kind), draws.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        path.write_bytes(blob)
        container.manifest_path(path).write_bytes(manifest)
        try:
            KINDS[kind][1](path)
        except DrrhoError:
            pass


@pytest.mark.parametrize("kind, key", [("dataset", "noise_sigma"), ("cache", "source_tau")])
def test_meta_int_beyond_float_range_is_format_error(kind, key):
    blob, manifest = _pristine(kind)
    doc = json.loads(manifest)
    doc["meta"][key] = _BIG
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        path.write_bytes(blob)
        container.manifest_path(path).write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"{key}.*too large for a float"):
            KINDS[kind][1](path)


# Every key is deleted, and set to each of these: other JSON types,
# out-of-range numbers and strings, and ints that no float holds. A random
# draw over all keys and values reaches one such edit about once in a
# thousand examples; this enumeration reaches each of them every run.
_DELETE = object()
_EDIT_VALUES = [
    _DELETE, None, True, "", "x", [0], {"k": 0}, -1, 0, 2**64, float("nan"), float("inf"), -1e308, _BIG, -_BIG
]


@pytest.mark.parametrize("kind", KINDS)
def test_every_manifest_key_edit_loads_or_raises_drrho_error(kind, tmp_path):
    blob, manifest = _pristine(kind)
    path = tmp_path / kind
    path.write_bytes(blob)
    escaped = []
    for group in _key_paths(json.loads(manifest)):
        for *parents, key in group:
            for value in _EDIT_VALUES:
                doc = json.loads(manifest)
                parent = functools.reduce(lambda node, step: node[step], parents, doc)
                if value is _DELETE:
                    del parent[key]
                else:
                    parent[key] = value
                container.manifest_path(path).write_text(json.dumps(doc))
                try:
                    KINDS[kind][1](path)
                except DrrhoError:
                    pass
                except Exception as exc:  # noqa: BLE001 - collected, then reported together
                    escaped.append(f"{[*parents, key]} = {value!r}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)


# Each kind's writer, its meta function, and the meta entries its loader
# builds the object from (its inputs); every other entry is derived.
OBJECTS = {
    "dataset": (data.save_dataset, data._dataset_meta, data._DATASET_FIELDS),
    "cache": (data.save_cache, data._cache_meta, data._CACHE_FIELDS),
    "model": (encoder.save_model, encoder._model_meta, {}),
}


def _loaded(kind, tmp_path):
    path = tmp_path / kind
    KINDS[kind][0](path)
    return path, KINDS[kind][1](path)


def _derived_keys(kind) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        _, obj = _loaded(kind, Path(tmp))
    _, meta_of, inputs = OBJECTS[kind]
    return [key for key in meta_of(obj) if key not in inputs]


def _other(value):
    """Another value of ``value``'s JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "0"


@pytest.mark.parametrize("kind, key", [(kind, key) for kind in OBJECTS for key in _derived_keys(kind)])
def test_derived_meta_entry_of_another_value_is_format_error_naming_it(kind, key, tmp_path):
    path, obj = _loaded(kind, tmp_path)
    mpath = container.manifest_path(path)
    doc = json.loads(mpath.read_text())
    doc["meta"][key] = _other(OBJECTS[kind][1](obj)[key])
    mpath.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"'{key}'"):
        KINDS[kind][1](path)


@pytest.mark.parametrize("kind", OBJECTS)
def test_write_load_write_is_a_fixpoint(kind, tmp_path):
    path, obj = _loaded(kind, tmp_path)
    again = tmp_path / "again"
    OBJECTS[kind][0](obj, again)
    assert again.read_bytes() == path.read_bytes()
    assert container.manifest_path(again).read_bytes() == container.manifest_path(path).read_bytes()


def _overflowing(blob: bytes, manifest: bytes) -> tuple[bytes, bytes]:
    """The container of ``blob``'s kind that declares one array ``w1`` of
    shape (65536,)*4 and no payload, under a valid checksum: its 2**64
    entries wrap to 0 in 64-bit integers."""
    shape = (65536,) * 4
    crafted = blob[:10] + struct.pack("<IH", 1, 2) + b"w1" + struct.pack("<B4I", 4, *shape)
    doc = json.loads(manifest)
    doc.update(arrays=[{"name": "w1", "shape": list(shape)}], checksum_sha256=hashlib.sha256(crafted).hexdigest())
    return crafted, json.dumps(doc).encode()


def _write(path, blob: bytes, manifest: bytes) -> None:
    path.write_bytes(blob)
    container.manifest_path(path).write_bytes(manifest)


def test_payload_size_beyond_64_bits_is_format_error(tmp_path):
    path = tmp_path / "m.ckpt"
    _write(path, *_overflowing(*_pristine("model")))
    expected = 14 + 2 + 2 + 1 + 4 * 4 + 8 * 2**64
    with pytest.raises(FormatError, match=f"expected {expected}"):
        container.read_container(path)
    with pytest.raises(FormatError, match=f"expected {expected}"):
        encoder.load_model(path)


# The binary half of the narrow contract: every header byte flipped, the
# binary cut at every header offset and the overflowing file each raise one
# of the three container errors, from the loader of every kind.
@pytest.mark.parametrize("kind", KINDS)
def test_header_flips_truncations_and_overflow_raise_container_errors(kind, tmp_path):
    blob, manifest = _pristine(kind)
    header = len(blob) - 8 * sum(math.prod(a["shape"]) for a in json.loads(manifest)["arrays"])
    cases = {f"flip {at}": (blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :], manifest) for at in range(header)}
    cases.update({f"truncate {length}": (blob[:length], manifest) for length in range(header + 1)})
    cases["overflow"] = _overflowing(blob, manifest)
    path = tmp_path / kind
    escaped = []
    for name, files in cases.items():
        _write(path, *files)
        try:
            KINDS[kind][1](path)
            escaped.append(f"{name}: loaded")
        except (FormatError, VersionError, ChecksumError):
            pass
        except Exception as exc:  # noqa: BLE001 - collected, then reported together
            escaped.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)
