"""Hostile edits to every container kind: a flipped byte in either file, a
truncated binary, or a manifest key deleted, retyped or re-valued. The
matching loader either returns or raises a ``DrrhoError``; nothing else
may escape."""

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drrho import container, data, encoder, trainer
from drrho.errors import DrrhoError, FormatError


def _dataset():
    return data.generate_synthetic(12, 4, 3, 2, 0.1, 0.25, seed=0)


def _save_checkpoint(path):
    config = trainer.TrainConfig(method="fastclip", steps=2, batch_size=4, embed_dim=3)
    state = trainer.init_trainer_state(encoder.init_model(3, 4, 3, seed=2), 12, config)
    trainer.save_checkpoint(state, path)


KINDS = {
    "dataset": (lambda path: data.save_dataset(_dataset(), path), data.load_dataset),
    "cache": (
        lambda path: data.save_cache(data.build_reference_cache(_dataset(), encoder.init_model(3, 4, 3, seed=1)), path),
        data.load_cache,
    ),
    "model": (lambda path: encoder.save_model(encoder.init_model(3, 4, 3, seed=2), path), encoder.load_model),
    "checkpoint": (_save_checkpoint, trainer.load_checkpoint),
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


@pytest.mark.parametrize("kind, key", [("dataset", "noise_sigma"), ("cache", "source_tau"), ("checkpoint", "lr")])
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
