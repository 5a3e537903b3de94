"""Binary container round trips and the three distinct load failures."""

import hashlib
import json
import re

import numpy as np
import pytest

from drrho import container, data, encoder
from drrho.errors import ChecksumError, FormatError, VersionError
from drrho.rng import CounterRng


def _sample_arrays():
    rng = CounterRng(7)
    return {"a": rng.normals((5, 3)), "b": rng.normals(11), "c": np.zeros((2, 2, 2))}


def test_round_trip_bit_exact(tmp_path):
    arrays = _sample_arrays()
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, arrays, meta={"seed": 7, "note": "hi"})
    loaded, meta = container.read_container(path, expect_kind=container.KIND_MODEL)
    assert meta == {"seed": 7, "note": "hi"}
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_corrupt_payload_byte_raises_checksum_error(tmp_path):
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, _sample_arrays())
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        container.read_container(path)


def test_version_mismatch_raises_version_error(tmp_path):
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, _sample_arrays())
    blob = bytearray(path.read_bytes())
    blob[6] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        container.read_container(path)


def test_truncated_file_raises_format_error(tmp_path):
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, _sample_arrays())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(FormatError):
        container.read_container(path)


def test_bad_magic_raises_format_error(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTDRRHO" + b"\x00" * 32)
    with pytest.raises(FormatError):
        container.read_container(path)


def test_manifest_disagreement_raises_format_error(tmp_path):
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, _sample_arrays())
    mpath = container.manifest_path(path)
    manifest = json.loads(mpath.read_text())
    manifest["arrays"][0]["shape"] = [999, 3]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        container.read_container(path)


@pytest.mark.parametrize(
    "entry",
    [
        {"name": "a", "shape": [5.0, 3]},
        {"name": "a", "shape": [-5, 3]},
        {"name": 1, "shape": [5, 3]},
        {"name": "\ud800", "shape": [5, 3]},
    ],
    ids=["float-dim", "negative-dim", "int-name", "unencodable-name"],
)
def test_manifest_array_without_a_header_encoding_is_format_error(tmp_path, entry):
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, _sample_arrays())
    mpath = container.manifest_path(path)
    manifest = json.loads(mpath.read_text())
    manifest["arrays"][0] = entry
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match="manifest arrays"):
        container.read_container(path)


def test_wrong_kind_raises_format_error(tmp_path):
    path = tmp_path / "x.bin"
    container.write_container(path, container.KIND_MODEL, _sample_arrays())
    with pytest.raises(FormatError):
        container.read_container(path, expect_kind=container.KIND_DATASET)
    # Kind 4, the retired trainer checkpoint: an old trainer.ckpt given as a model.
    blob = bytearray(path.read_bytes())
    blob[8:10] = (4).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: kind 4, expected model"):
        container.read_container(path, expect_kind=container.KIND_MODEL)


def test_format_bytes_are_pinned(tmp_path):
    # A self-consistent change to the layout would pass every round trip and
    # still leave every file written before it unreadable.
    path = tmp_path / "x.bin"
    arrays = _sample_arrays()
    container.write_container(path, container.KIND_MODEL, arrays, meta={"seed": 7, "note": "hi"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "101ce77f5191ac252457873ff24a7dc529ed42b77d0ddab4e5b328fbd3a8b7ed"
    )
    assert hashlib.sha256(container.manifest_path(path).read_bytes()).hexdigest() == (
        "f4a117b34b1e91cf7402072f8b3958fb7280aa3c1f7cd2497badf27f92aa1182"
    )
    loaded, _ = container.read_container(path, expect_kind=container.KIND_MODEL)
    assert [(name, arr.shape, arr.tobytes()) for name, arr in loaded.items()] == [
        (name, arr.shape, arr.tobytes()) for name, arr in arrays.items()
    ]


def _small_dataset():
    return data.generate_synthetic(16, 6, 5, 3, 0.1, 0.25, seed=1)


def _small_model():
    return encoder.init_model(4, 6, 5, seed=2)


@pytest.mark.parametrize(
    "kind, save, load, dropped",
    [
        (container.KIND_DATASET, lambda p: data.save_dataset(_small_dataset(), p), data.load_dataset, "xs"),
        (
            container.KIND_CACHE,
            lambda p: data.save_cache(data.build_reference_cache(_small_dataset(), _small_model()), p),
            data.load_cache,
            "e1",
        ),
        (container.KIND_MODEL, lambda p: encoder.save_model(_small_model(), p), encoder.load_model, "tau"),
    ],
    ids=["dataset", "cache", "model"],
)
def test_missing_array_names_path_and_array(tmp_path, kind, save, load, dropped):
    path = tmp_path / "artifact.bin"
    save(path)
    arrays, meta = container.read_container(path, expect_kind=kind)
    del arrays[dropped]
    container.write_container(path, kind, arrays, meta=meta)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: .*{dropped!r}"):
        load(path)


def test_rng_streams_are_positional_and_disjoint():
    a = CounterRng(5, stream=0)
    b = CounterRng(5, stream=0)
    assert np.array_equal(a.raw(100), b.raw(100))
    c = CounterRng(5, stream=1)
    assert not np.array_equal(CounterRng(5, stream=0).raw(100), c.raw(100))
    # counter advances: two calls equal one long call
    d = CounterRng(5, stream=0)
    first, second = d.uniforms(10), d.uniforms(10)
    e = CounterRng(5, stream=0)
    assert np.array_equal(np.concatenate([first, second]), e.uniforms(20))


def test_rng_normals_reasonable_and_uniform_range():
    rng = CounterRng(123)
    u = rng.uniforms(200000)
    assert u.min() > 0.0 and u.max() <= 1.0
    z = CounterRng(123, stream=9).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_rng_permutation_is_a_permutation():
    rng = CounterRng(77)
    p = rng.permutation(257)
    assert np.array_equal(np.sort(p), np.arange(257))
