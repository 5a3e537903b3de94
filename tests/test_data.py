"""Synthetic generation, alignment structure, cache, and file round trips."""

import dataclasses
import pickle
from dataclasses import replace

import numpy as np
import pytest

from drrho import data, encoder
from drrho.errors import ConfigError, DegenerateEmbeddingError


def test_same_seed_regenerates_bit_identical():
    a = data.generate_synthetic(32, 12, 10, 4, 0.3, 0.25, seed=9)
    b = data.generate_synthetic(32, 12, 10, 4, 0.3, 0.25, seed=9)
    assert a.xs.tobytes() == b.xs.tobytes()
    assert a.ys.tobytes() == b.ys.tobytes()
    assert np.array_equal(a.split, b.split)
    c = data.generate_synthetic(32, 12, 10, 4, 0.3, 0.25, seed=10)
    assert a.xs.tobytes() != c.xs.tobytes()


def test_zero_noise_latents_coincide():
    ds = data.generate_synthetic(8, 10, 9, 4, 0.0, 0.0, seed=3)
    a, b = data.synthetic_projections(10, 9, 4, seed=3)
    lat_x = np.linalg.lstsq(a, ds.xs.T, rcond=None)[0].T
    lat_y = np.linalg.lstsq(b, ds.ys.T, rcond=None)[0].T
    assert np.allclose(lat_x, lat_y, atol=1e-10)


def test_zero_noise_true_latent_cosine_ranks_partner_first():
    # oracle: embed through the true projections, score by cosine
    ds = data.generate_synthetic(8, 10, 9, 4, 0.0, 0.0, seed=3)
    a, b = data.synthetic_projections(10, 9, 4, seed=3)
    lat_x = np.linalg.lstsq(a, ds.xs.T, rcond=None)[0].T
    lat_y = np.linalg.lstsq(b, ds.ys.T, rcond=None)[0].T
    lat_x /= np.linalg.norm(lat_x, axis=1, keepdims=True)
    lat_y /= np.linalg.norm(lat_y, axis=1, keepdims=True)
    sim = lat_x @ lat_y.T
    assert (np.argmax(sim, axis=1) == np.arange(8)).all()


def test_zero_noise_ranking_holds_up_to_n64():
    ds = data.generate_synthetic(64, 16, 14, 6, 0.0, 0.0, seed=21)
    a, b = data.synthetic_projections(16, 14, 6, seed=21)
    lat_x = np.linalg.lstsq(a, ds.xs.T, rcond=None)[0].T
    lat_y = np.linalg.lstsq(b, ds.ys.T, rcond=None)[0].T
    lat_x /= np.linalg.norm(lat_x, axis=1, keepdims=True)
    lat_y /= np.linalg.norm(lat_y, axis=1, keepdims=True)
    sim = lat_x @ lat_y.T
    assert (np.argmax(sim, axis=1) == np.arange(64)).all()


def test_split_is_deterministic_suffix():
    ds = data.generate_synthetic(10, 6, 6, 3, 0.1, 0.25, seed=1)
    assert np.array_equal(ds.test_indices, np.array([7, 8, 9]))  # ceil(2.5) = 3
    assert np.array_equal(ds.train_indices, np.arange(7))


def test_generate_argument_validation():
    with pytest.raises(ConfigError):
        data.generate_synthetic(1, 6, 6, 3, 0.1, 0.2, seed=0)
    with pytest.raises(ConfigError):
        data.generate_synthetic(8, 6, 6, 7, 0.1, 0.2, seed=0)
    with pytest.raises(ConfigError):
        data.generate_synthetic(8, 6, 6, 3, -0.1, 0.2, seed=0)
    with pytest.raises(ConfigError):
        data.generate_synthetic(8, 6, 6, 3, 0.1, 1.2, seed=0)


def test_cache_zero_weights_rejected():
    ds = data.generate_synthetic(6, 5, 5, 3, 0.1, 0.0, seed=2)
    zero = encoder.TwoTowerModel(w1=np.zeros((4, 5)), w2=np.zeros((4, 5)))
    with pytest.raises(DegenerateEmbeddingError):
        data.build_reference_cache(ds, zero)


def test_cache_identity_like_encoder_on_unit_inputs():
    # unit-norm raw inputs, identity weights: embeddings equal the inputs
    xs = np.eye(4)
    ds = data.PairedDataset(xs=xs, ys=xs.copy(), split=np.zeros(4), seed=0, noise_sigma=0.0, d_latent=4)
    ident = encoder.TwoTowerModel(w1=np.eye(4), w2=np.eye(4))
    cache = data.build_reference_cache(ds, ident)
    assert np.allclose(cache.e1, xs, atol=1e-12)
    assert np.allclose(cache.e2, xs, atol=1e-12)


def test_cache_similarity_matches_on_the_fly_recompute():
    ds = data.generate_synthetic(24, 12, 10, 4, 0.2, 0.0, seed=5)
    ref = encoder.init_model(6, 12, 10, seed=8)
    cache = data.build_reference_cache(ds, ref)
    idx = np.array([3, 7, 11, 19])
    on_the_fly = encoder.batch_forward(ref, ds.xs[idx], ds.ys[idx]).s
    assert np.max(np.abs(cache.similarity(idx) - on_the_fly)) < 1e-12


def test_cache_dimension_mismatch():
    ds = data.generate_synthetic(6, 5, 5, 3, 0.1, 0.0, seed=2)
    ref = encoder.init_model(4, 7, 5, seed=1)
    with pytest.raises(ConfigError):
        data.build_reference_cache(ds, ref)


def test_cache_unit_norm_invariant_enforced():
    bad = np.ones((3, 4))
    with pytest.raises(ConfigError):
        data.EmbeddingCache(e1=bad, e2=bad, source_id="x", dataset_id="d", source_tau=0.07)


def test_dataset_round_trip(tmp_path):
    ds = data.generate_synthetic(20, 8, 7, 3, 0.15, 0.2, seed=4)
    path = tmp_path / "d.dpd"
    data.save_dataset(ds, path)
    back = data.load_dataset(path)
    assert back.xs.tobytes() == ds.xs.tobytes()
    assert back.ys.tobytes() == ds.ys.tobytes()
    assert np.array_equal(back.split, ds.split)
    assert back.content_hash() == ds.content_hash()


def test_cache_round_trip(tmp_path):
    ds = data.generate_synthetic(12, 8, 7, 3, 0.15, 0.0, seed=4)
    ref = encoder.init_model(5, 8, 7, seed=6)
    cache = data.build_reference_cache(ds, ref)
    path = tmp_path / "c.emb"
    data.save_cache(cache, path)
    back = data.load_cache(path)
    assert back.e1.tobytes() == cache.e1.tobytes()
    assert back.e2.tobytes() == cache.e2.tobytes()
    assert back.source_id == cache.source_id
    assert back.dataset_id == ds.content_hash()
    assert back.source_tau == ref.tau


def test_manifest_n_disagreement_is_format_error(tmp_path):
    import json

    from drrho import container
    from drrho.errors import FormatError

    ds = data.generate_synthetic(12, 8, 7, 3, 0.15, 0.0, seed=4)
    path = tmp_path / "d.dpd"
    data.save_dataset(ds, path)
    mpath = container.manifest_path(path)
    manifest = json.loads(mpath.read_text())
    manifest["meta"]["n"] = 999
    # keep the checksum valid: it only covers the binary payload
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        data.load_dataset(path)


@pytest.mark.parametrize(
    "field, value",
    [("noise_sigma", 0), ("noise_sigma", np.float64(0.25)), ("seed", np.int64(3)), ("d_latent", np.int64(2))],
    ids=["int-sigma", "numpy-sigma", "numpy-seed", "numpy-d_latent"],
)
def test_dataset_of_any_accepted_scalar_round_trips(tmp_path, field, value):
    args = {"noise_sigma": 0.25, "seed": 1, "d_latent": 2, field: value}
    ds = data.generate_synthetic(32, 6, 5, args["d_latent"], args["noise_sigma"], 0.25, seed=args["seed"])
    path = tmp_path / "d.dpd"
    data.save_dataset(ds, path)
    back = data.load_dataset(path)
    assert back.content_hash() == ds.content_hash()
    assert (back.seed, back.noise_sigma, back.d_latent) == (ds.seed, ds.noise_sigma, ds.d_latent)


@pytest.mark.parametrize(
    "field, value", [("seed", True), ("d_latent", False), ("noise_sigma", True), ("seed", 1.5), ("noise_sigma", "0.1")]
)
def test_dataset_scalar_of_another_type_is_config_error_naming_it(field, value):
    ds = data.generate_synthetic(8, 4, 4, 2, 0.1, 0.0, seed=1)
    with pytest.raises(ConfigError, match=f"^{field}: "):
        replace(ds, **{field: value})


@pytest.mark.parametrize("seed", [-1, 2**63, 3 + 2**64])
def test_seed_outside_the_accepted_range_is_config_error(seed):
    # 3 + 2**64 would give seed 3's arrays under another content hash.
    with pytest.raises(ConfigError, match="seed"):
        data.generate_synthetic(8, 4, 4, 2, 0.1, 0.0, seed=seed)
    assert data.generate_synthetic(8, 4, 4, 2, 0.1, 0.0, seed=2**63 - 1).n == 8


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise_sigma", "0.1"),
        ("noise_sigma", None),
        ("d_latent", 2.0),
        ("d_latent", "3"),
        ("n", 8.0),
        ("d_x", None),
        ("test_fraction", "0.25"),
        ("seed", 1.0),
    ],
)
def test_generate_synthetic_mistyped_argument_is_config_error_naming_it(field, value):
    args = dict(n=8, d_x=4, d_y=4, d_latent=2, noise_sigma=0.1, test_fraction=0.0, seed=1)
    args[field] = value
    with pytest.raises(ConfigError, match=f"^{field}: "):
        data.generate_synthetic(**args)


def test_dataset_is_read_only_so_its_hash_is_computed_once(sha256_calls):
    ds = data.generate_synthetic(8, 4, 3, 2, 0.1, 0.25, seed=1)
    first = ds.content_hash()
    for name in ("xs", "ys", "split"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, getattr(ds, name).copy())
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.seed = 2
    assert ds.content_hash() == first and len(sha256_calls) == 1
    # a sweep's worker receives the dataset pickled: still read-only, hash carried over
    back = pickle.loads(pickle.dumps(ds))
    with pytest.raises(ValueError, match="read-only"):
        back.xs[0, 0] = 1.0
    assert back.content_hash() == first and len(sha256_calls) == 1


def test_dataset_holds_its_own_copy_of_the_inputs():
    xs = np.eye(4)
    ds = data.PairedDataset(xs=xs, ys=xs.copy(), split=np.zeros(4), seed=0, noise_sigma=0.0, d_latent=4)
    before = ds.content_hash()
    xs[0, 0] = 5.0  # the caller's array stays the caller's, and writable
    assert ds.xs[0, 0] == 1.0 and ds.content_hash() == before
    assert before == replace(ds).content_hash()
