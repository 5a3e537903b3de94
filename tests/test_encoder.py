"""Encoder normalization, similarity, and closed-form gradients vs FD.

The per-vector ``embed`` and per-pair ``similarity_grad`` references are in
``oracles``; the library embeds whole batches, both towers in one call, and
the embedding tests check both towers."""

import numpy as np
import pytest

from drrho import encoder
from drrho.errors import DegenerateEmbeddingError
from drrho.rng import CounterRng

from oracles import embed, finite_diff_matrix, rel_err, similarity_grad


def _random_model(seed, d=5, dx=6, dy=7, tau=0.2):
    return encoder.init_model(d, dx, dy, seed=seed, tau=tau)


def test_identity_padded_on_unit_input():
    # each tower reads its own three of the five raw features
    w1 = np.concatenate([np.eye(3), np.zeros((3, 2))], axis=1)
    w2 = np.concatenate([np.zeros((3, 2)), np.eye(3)], axis=1)
    model = encoder.TwoTowerModel(w1=w1, w2=w2)
    raw = np.array([0.6, 0.8, 0.0, 0.9, 0.9])
    e, r = encoder.pair_embeddings(model, raw[None], raw[None])
    for k, features in enumerate((raw[:3], raw[2:])):  # image, text
        assert np.allclose(e[k, 0], features / np.linalg.norm(features), atol=1e-12)
        assert r[k, 0] == pytest.approx(np.linalg.norm(features), abs=1e-15)


def test_embed_output_always_unit_norm():
    rng = CounterRng(31)
    model = _random_model(1)
    e, _ = encoder.pair_embeddings(model, rng.normals((20, 6)), rng.normals((20, 7)))
    assert e.shape == (2, 20, 5)
    assert (np.abs(np.linalg.norm(e, axis=-1) - 1.0) <= 1e-9).all()


def test_embed_scale_invariance():
    model = _random_model(2)
    rng = CounterRng(8)
    xs, ys = rng.normals((3, 6)), rng.normals((3, 7))
    base, r = encoder.pair_embeddings(model, xs, ys)
    scaled = encoder.TwoTowerModel(w1=3.0 * model.w1, w2=0.5 * model.w2, tau=model.tau)
    e, r_scaled = encoder.pair_embeddings(scaled, xs, ys)
    assert np.allclose(e, base, atol=1e-12)
    assert np.allclose(r_scaled, [[3.0], [0.5]] * r, rtol=1e-12)


def test_embed_degenerate_raises():
    ones = np.ones((2, 4))
    for tower, model in (
        ("image", encoder.TwoTowerModel(w1=np.zeros((3, 4)), w2=np.ones((3, 4)))),
        ("text", encoder.TwoTowerModel(w1=np.ones((3, 4)), w2=np.zeros((3, 4)))),
    ):
        message = rf"^{tower} embedding norm below threshold at rows \[0, 1\]$"
        with pytest.raises(DegenerateEmbeddingError, match=message):
            encoder.pair_embeddings(model, ones, ones)


def test_similarity_self_and_orthogonal():
    model = encoder.TwoTowerModel(w1=np.eye(3), w2=np.eye(3))
    xs = np.eye(3)
    s = encoder.batch_forward(model, xs, xs).s
    assert np.allclose(np.diag(s), 1.0)
    assert np.allclose(s - np.diag(np.diag(s)), 0.0)


def test_similarity_matches_dot_product_oracle():
    model = _random_model(3, d=4, dx=5, dy=6)
    rng = CounterRng(77)
    xs = rng.normals((3, 5))
    ys = rng.normals((3, 6))
    s = encoder.batch_forward(model, xs, ys).s
    for i in range(3):
        e1 = embed(model, "image", xs[i])
        for j in range(3):
            e2 = embed(model, "text", ys[j])
            assert abs(s[i, j] - float(e1 @ e2)) < 1e-12
    assert np.all(np.abs(s) <= 1.0 + 1e-9)


def test_similarity_grad_matches_finite_differences():
    # the per-pair reference that the batch backward is checked against
    rng = CounterRng(17)
    worst = 0.0
    for seed in range(20):
        model = _random_model(100 + seed)
        x = rng.normals(6)
        y = rng.normals(7)
        g1, g2 = similarity_grad(model, x, y)

        def s_of_w1(w):
            return encoder.batch_forward(
                encoder.TwoTowerModel(w1=w, w2=model.w2, tau=model.tau), x[None], y[None]
            ).s[0, 0]

        def s_of_w2(w):
            return encoder.batch_forward(
                encoder.TwoTowerModel(w1=model.w1, w2=w, tau=model.tau), x[None], y[None]
            ).s[0, 0]

        worst = max(worst, rel_err(g1, finite_diff_matrix(s_of_w1, model.w1)))
        worst = max(worst, rel_err(g2, finite_diff_matrix(s_of_w2, model.w2)))
    assert worst <= 1e-4


def _pair_backward(model, x, y):
    """The batch forward and backward of the one-pair similarity s(x, y)."""
    fwd = encoder.batch_forward(model, x[None], y[None])
    return fwd, encoder.similarity_backward(fwd, x[None], y[None], np.ones((1, 1)))


def test_similarity_grad_orthogonal_to_own_embedding():
    model = _random_model(4)
    rng = CounterRng(5)
    x, y = rng.normals(6), rng.normals(7)
    fwd, grads = _pair_backward(model, x, y)
    # each column of g1 is proportional to the projected partner: e1 . (g1 @ dual) = 0
    assert np.max(np.abs(fwd.e[0, 0] @ grads["w1"])) < 1e-12


def test_similarity_grad_zero_at_aligned_pair():
    model = _random_model(6)
    rng = CounterRng(15)
    x = rng.normals(6)
    e1 = encoder.pair_embeddings(model, x[None], np.ones((1, 7)))[0][0, 0]  # any text row
    # choose y so the text embedding equals e1 exactly: solve w2 @ y = e1
    y, *_ = np.linalg.lstsq(model.w2, e1, rcond=None)
    _, grads = _pair_backward(model, x, y)
    assert np.max(np.abs(grads["w1"])) < 1e-12


def test_positive_homogeneity_of_similarities():
    model = _random_model(7)
    rng = CounterRng(25)
    xs, ys = rng.normals((4, 6)), rng.normals((4, 7))
    s = encoder.batch_forward(model, xs, ys).s
    scaled = encoder.TwoTowerModel(w1=2.5 * model.w1, w2=0.3 * model.w2, tau=model.tau)
    assert np.allclose(encoder.batch_forward(scaled, xs, ys).s, s, atol=1e-12)


def test_similarity_backward_matches_per_pair_grads():
    model = _random_model(8, d=4, dx=5, dy=6)
    rng = CounterRng(35)
    xs, ys = rng.normals((5, 5)), rng.normals((5, 6))
    coef = rng.normals((5, 5))
    fwd = encoder.batch_forward(model, xs, ys)
    got = encoder.similarity_backward(fwd, xs, ys, coef)
    want1 = np.zeros_like(model.w1)
    want2 = np.zeros_like(model.w2)
    for i in range(5):
        for j in range(5):
            g1, g2 = similarity_grad(model, xs[i], ys[j])
            want1 += coef[i, j] * g1
            want2 += coef[i, j] * g2
    assert rel_err(got["w1"], want1) < 1e-10
    assert rel_err(got["w2"], want2) < 1e-10


def test_model_checkpoint_round_trip(tmp_path):
    model = _random_model(9)
    path = tmp_path / "m.ckpt"
    encoder.save_model(model, path)
    back = encoder.load_model(path)
    assert back.w1.tobytes() == model.w1.tobytes()
    assert back.w2.tobytes() == model.w2.tobytes()
    assert back.tau == model.tau
    assert back.id_hash == model.id_hash
