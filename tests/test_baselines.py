"""InfoNCE, selection, and distillation; InfoNCE and distillation values
come from the loop oracles, since the library computes only their
gradients."""

import numpy as np
import pytest

from drrho import baselines, data, encoder, trainer
from drrho.rng import CounterRng

from oracles import distillation_direct, finite_diff_scalar, infonce_direct, rel_err


def _random_sim(seed, n, d=5):
    rng = CounterRng(seed)
    e1 = rng.normals((n, d))
    e2 = rng.normals((n, d))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    return e1 @ e2.T


def _numeric_grad_s(f, s, h=1e-6):
    g = np.zeros_like(s)
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            sp, sm = s.copy(), s.copy()
            sp[i, j] += h
            sm[i, j] -= h
            g[i, j] = (f(sp) - f(sm)) / (2 * h)
    return g


def test_infonce_grad_matches_numeric():
    s = _random_sim(9, 4)
    got = baselines.infonce_grad_s(s, 0.3)
    want = _numeric_grad_s(lambda m: infonce_direct(m, 0.3), s)
    assert rel_err(got, want) <= 1e-6


def test_infonce_tau_gradient_matches_numeric():
    s = _random_sim(10, 4)
    got = baselines.infonce_tau_gradient(s, 0.4)
    fd = finite_diff_scalar(lambda t: infonce_direct(s, t), 0.4)
    assert abs(got - fd) / max(1e-8, abs(fd)) <= 1e-5


def test_gcl_step_equals_drrho_with_flat_reference():
    ds = data.generate_synthetic(8, 10, 9, 3, 0.2, 0.0, seed=1)
    model = encoder.init_model(4, 10, 9, seed=2, tau=0.5)
    config = trainer.TrainConfig(method="fastclip", batch_size=8, embed_dim=4, gamma=1.0, epsilon=0.0, tau=0.5)
    batch = np.arange(8)
    fwd = encoder.batch_forward(model, ds.xs, ds.ys)

    state_a = trainer.init_trainer_state(model.copy(), 8, config)
    u = trainer.update_u(state_a, batch, fwd.s)
    gcl = trainer.gradient_estimator(state_a, u, fwd, ds.xs, ds.ys, fwd.s)

    flat_ref = np.full((8, 8), 0.42)  # all reference gaps vanish
    state_b = trainer.init_trainer_state(model.copy(), 8, config)
    u = trainer.update_u(state_b, batch, fwd.s - flat_ref)
    shifted = trainer.gradient_estimator(state_b, u, fwd, ds.xs, ds.ys, fwd.s - flat_ref)
    assert rel_err(gcl["w1"], shifted["w1"]) < 1e-12
    assert rel_err(gcl["w2"], shifted["w2"]) < 1e-12


def test_gcl_step_matches_finite_differences():
    from drrho import contrastive
    from oracles import finite_diff_matrix

    ds = data.generate_synthetic(10, 8, 7, 3, 0.2, 0.0, seed=3)
    model = encoder.init_model(4, 8, 7, seed=4, tau=0.5)
    config = trainer.TrainConfig(method="fastclip", batch_size=10, embed_dim=4, gamma=1.0, epsilon=0.0, tau=0.5)
    state = trainer.init_trainer_state(model, 10, config)
    batch = np.arange(10)
    fwd = encoder.batch_forward(model, ds.xs, ds.ys)
    u = trainer.update_u(state, batch, fwd.s)
    grads = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, fwd.s)

    def objective(w):
        m = encoder.TwoTowerModel(w1=w, w2=model.w2, tau=0.5)
        s = encoder.batch_forward(m, ds.xs, ds.ys).s
        return contrastive.global_objective(s, None, tau=0.5, over=contrastive.OVER_EXCLUDE)

    fd = finite_diff_matrix(objective, model.w1)
    assert rel_err(grads["w1"], fd) <= 1e-4


def test_selection_size_matches_stated_configuration():
    assert baselines.selection_size(0.2, 25600) == 5120
    assert baselines.selection_size(0.2, 25) == 5


def test_jest_select_sizes_partition_and_determinism():
    rng = CounterRng(70)
    for trial in range(20):
        m = 15 + int(rng.uniforms(1)[0] * 30)
        s_t = _random_sim(trial, m)
        s_r = _random_sim(100 + trial, m)
        super_batch = np.arange(1000, 1000 + m)
        mode = "sample" if trial % 2 == 0 else "topk"
        out = baselines.jest_select(s_t, s_r, super_batch, 0.3, 2, mode=mode, seed=trial)
        k = baselines.selection_size(0.3, m)
        assert len(out.selected) == k
        assert set(out.selected) <= set(super_batch)
        assert len(set(out.selected.tolist())) == k
        chunk_union = np.concatenate([c.indices for c in out.chunk_trace])
        assert sorted(chunk_union.tolist()) == sorted(out.selected.tolist())
        again = baselines.jest_select(s_t, s_r, super_batch, 0.3, 2, mode=mode, seed=trial)
        assert np.array_equal(out.selected, again.selected)


def test_jest_topk_matches_sort_oracle_single_chunk():
    s_t = _random_sim(11, 20)
    s_r = _random_sim(12, 20)
    super_batch = np.arange(20)
    out = baselines.jest_select(s_t, s_r, super_batch, 0.25, 1, mode="topk", seed=0)
    want = np.argsort(-np.diag(s_t), kind="stable")[:5]
    assert np.array_equal(out.selected, want)


def test_jest_second_chunk_scores_against_first():
    s_t = _random_sim(13, 12)
    s_r = _random_sim(14, 12)
    super_batch = np.arange(12)
    tau = 0.2
    out = baselines.jest_select(s_t, s_r, super_batch, 0.5, 2, mode="topk", seed=0, score_tau=tau)
    first = out.chunk_trace[0].indices
    # recompute a remaining candidate's score by hand
    cand = [i for i in range(12) if i not in set(first.tolist())]
    c = cand[0]
    sel = first

    def lse(vals):
        vals = np.asarray(vals)
        return float(tau * np.log(np.mean(np.exp(vals / tau))))

    g1 = [(s_t[c, j] - s_t[c, c]) - (s_r[c, j] - s_r[c, c]) for j in sel]
    g2 = [(s_t[j, c] - s_t[c, c]) - (s_r[j, c] - s_r[c, c]) for j in sel]
    want = lse(g1) + lse(g2)
    pos = list(out.chunk_trace[1].indices).index(c) if c in out.chunk_trace[1].indices else None
    # hand score must match the recorded score whenever c was picked; if it
    # was not picked, it must not beat the lowest recorded top-k score
    if pos is not None:
        assert out.chunk_trace[1].scores[pos] == pytest.approx(want, abs=1e-12)
    else:
        assert want <= np.min(out.chunk_trace[1].scores) + 1e-12


def test_jest_topk_invariant_under_candidate_permutation():
    # with all-distinct scores the picked items do not depend on ordering
    s_t = _random_sim(23, 16)
    s_r = _random_sim(24, 16)
    super_batch = np.arange(200, 216)
    base = baselines.jest_select(s_t, s_r, super_batch, 0.25, 2, mode="topk", seed=0)
    perm = CounterRng(9).permutation(16)
    out = baselines.jest_select(
        s_t[np.ix_(perm, perm)], s_r[np.ix_(perm, perm)], super_batch[perm], 0.25, 2, mode="topk", seed=0
    )
    assert sorted(out.selected.tolist()) == sorted(base.selected.tolist())


def test_jest_argument_errors():
    s = _random_sim(15, 10)
    with pytest.raises(ValueError):
        baselines.jest_select(s, s, np.arange(10), 0.1, 3, seed=0)  # 1 pick, 3 chunks
    with pytest.raises(ValueError):
        baselines.jest_select(s, s, np.arange(10), 1.5, 1, seed=0)
    with pytest.raises(ValueError):
        baselines.jest_select(s, s, np.arange(10), 0.5, 1, mode="bogus", seed=0)


def test_distillation_single_pair_zero():
    assert distillation_direct(np.array([[0.3]]), np.array([[0.9]]), 0.5, 0.5) == 0.0
    assert (baselines.distillation_grad_s(np.array([[0.3]]), np.array([[0.9]]), 0.5, 0.5) == 0.0).all()


def test_distillation_matched_distributions():
    s = _random_sim(16, 8)
    grad = baselines.distillation_grad_s(s, s, 0.3, 0.3)
    assert np.max(np.abs(grad)) <= 1e-10
    # value equals the mean row + column entropy of the reference distribution
    value = distillation_direct(s, s, 0.3, 0.3)
    b = len(s)
    ent = 0.0
    for axis in (1, 0):
        a = s / 0.3
        m = a.max(axis=axis, keepdims=True)
        p = np.exp(a - m)
        p /= p.sum(axis=axis, keepdims=True)
        ent += float(-(p * np.log(p)).sum()) / (b * b)
    assert value == pytest.approx(ent, abs=1e-12)


def test_distillation_grad_matches_numeric():
    s_t = _random_sim(19, 4)
    s_r = _random_sim(20, 4)
    got = baselines.distillation_grad_s(s_t, s_r, 0.5, 0.3)
    want = _numeric_grad_s(lambda m: distillation_direct(m, s_r, 0.5, 0.3), s_t)
    assert rel_err(got, want) <= 1e-6


def test_distillation_hard_label_limit():
    s_t = _random_sim(21, 4)
    s_r = _random_sim(22, 4)
    got = distillation_direct(s_t, s_r, 0.5, 1e-4)
    # tiny reference temperature: one-hot at the row/column argmax
    b = 4
    a = s_t / 0.5
    want = 0.0
    for axis in (1, 0):
        m = a.max(axis=axis, keepdims=True)
        logp = a - m - np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
        hard = np.argmax(s_r, axis=axis)
        for k in range(b):
            want -= logp[k, hard[k]] / (b * b) if axis == 1 else logp[hard[k], k] / (b * b)
    assert got == pytest.approx(want, abs=1e-8)


def test_distillation_cross_entropy_dominates_entropy():
    for seed in range(10):
        s_t = _random_sim(30 + seed, 5)
        s_r = _random_sim(60 + seed, 5)
        ce = distillation_direct(s_t, s_r, 0.5, 0.5)
        ent = distillation_direct(s_r, s_r, 0.5, 0.5)
        assert ce >= ent - 1e-12

