"""Estimator maintenance, gradient estimators, optimizer, and the loop."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drrho import baselines, container, contrastive, data, encoder, experiments, report, trainer
from drrho.errors import ConfigError, FormatError, StateError, TrainingError
from drrho.rng import CounterRng

from oracles import finite_diff_matrix, infonce_direct, rel_err, similarity_grad, update_u_direct


def _setup(n=10, d=4, dx=6, dy=5, tau=0.5, seed=0, **cfg_overrides):
    ds = data.generate_synthetic(n, dx, dy, 3, 0.2, 0.0, seed=seed)
    ref = encoder.init_model(d, dx, dy, seed=seed + 50, tau=tau)
    cache = data.build_reference_cache(ds, ref)
    model = encoder.init_model(d, dx, dy, seed=seed + 1, tau=tau)
    defaults = dict(method="drrho-clip", batch_size=n, embed_dim=d, tau=tau, seed=seed)
    defaults.update(cfg_overrides)
    config = trainer.TrainConfig(**defaults)
    state = trainer.init_trainer_state(model, n, config)
    return ds, cache, state, config


def _batch_means(state, batch, s):
    b = len(batch)
    _, q1, _, q2 = trainer.shifted_gap_exponentials(s, state.model.tau)
    return q1.sum(axis=1) / (b - 1), q2.sum(axis=1) / (b - 1)


def test_update_u_gamma_one_equals_batch_average():
    ds, cache, state, _ = _setup(gamma=1.0)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    u1, u2 = trainer.update_u(state, batch, fwd.s - s_r)
    m1, m2 = _batch_means(state, batch, fwd.s - s_r)
    assert np.allclose(u1, m1, atol=0) and np.allclose(u2, m2, atol=0)


def test_update_u_gamma_zero_is_noop():
    ds, cache, state, _ = _setup(gamma=1.0)
    state.config.gamma = 0.0
    state.u1[:] = 0.7
    state.u2[:] = 0.4
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    trainer.update_u(state, batch, fwd.s - cache.similarity(batch))
    assert (state.u1 == 0.7).all() and (state.u2 == 0.4).all()


def test_update_u_two_step_hand_recurrence():
    ds, cache, state, _ = _setup(gamma=0.5)
    u0 = 0.3
    state.u1[:] = u0
    state.u2[:] = u0
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    m1, m2 = _batch_means(state, batch, fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)  # same step, same losses
    assert np.allclose(state.u1[batch], 0.25 * u0 + 0.75 * m1, atol=1e-15)
    assert np.allclose(state.u2[batch], 0.25 * u0 + 0.75 * m2, atol=1e-15)


def test_update_u_first_touch_and_untouched_entries():
    ds, cache, state, _ = _setup(gamma=0.5)
    batch = np.arange(4)  # partial batch
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    s_r = cache.similarity(batch)
    m1, _ = _batch_means(state, batch, fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)
    # cold indices take the full average despite gamma=0.5
    assert np.allclose(state.u1[batch], m1, atol=0)
    assert (state.u1[4:] == 0).all() and (state.u2[4:] == 0).all()


def test_update_u_matches_per_index_loop():
    ds, cache, state, _ = _setup(n=12, gamma=0.3)
    state.u1[[1, 5, 7, 10]] = [0.2, 1.7, 0.0, 3.1]
    state.u2[[0, 5, 9]] = [0.9, 0.05, 2.4]
    batch = np.array([9, 1, 5, 0, 7, 11, 3])  # unsorted, cold and warm mixed
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    s_r = cache.similarity(batch)
    u1, u2 = state.u1.copy(), state.u2.copy()
    update_u_direct(u1, u2, batch, *_batch_means(state, batch, fwd.s - s_r), state.config.gamma)
    trainer.update_u(state, batch, fwd.s - s_r)
    assert np.array_equal(state.u1, u1) and np.array_equal(state.u2, u2)


def test_update_u_rejects_singleton_batch():
    ds, cache, state, _ = _setup()
    with pytest.raises(ValueError):
        trainer.update_u(state, np.array([3]), np.array([[1.0]]))


def test_update_u_rejects_repeated_index():
    ds, cache, state, _ = _setup()
    batch = np.array([0, 1, 2, 1])
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    with pytest.raises(ValueError, match="repeat"):
        trainer.update_u(state, batch, fwd.s - cache.similarity(batch))
    assert not state.u1.any() and not state.u2.any()


def test_u_positivity_and_bound():
    ds, cache, state, _ = _setup(gamma=0.7)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    gaps1, _, gaps2, _ = trainer.shifted_gap_exponentials(fwd.s - s_r, state.model.tau)
    trainer.update_u(state, batch, fwd.s - s_r)
    bound = np.exp(max(gaps1.max(), gaps2.max()) / state.model.tau)
    assert (state.u1[batch] > 0).all() and (state.u2[batch] > 0).all()
    assert (state.u1[batch] <= bound + 1e-12).all()


def test_estimator_consistency_at_gamma_one_over_steps():
    # full-dataset batches with gamma 1: u tracks the exact inner mean at
    # every step even as the model moves
    ds, cache, state, config = _setup(gamma=1.0, epsilon=0.0)
    batch = np.arange(ds.n)
    for _ in range(3):
        fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
        s_r = cache.similarity(batch)
        u = trainer.update_u(state, batch, fwd.s - s_r)
        m1, m2 = _batch_means(state, batch, fwd.s - s_r)
        assert np.max(np.abs(state.u1 - m1)) < 1e-12
        assert np.max(np.abs(state.u2 - m2)) < 1e-12
        grads = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, fwd.s - s_r)
        trainer.optimizer_step(state, grads)


def test_estimators_reject_u_of_wrong_shape():
    ds, cache, state, _ = _setup(tau_learnable=True)
    batch = np.arange(8)
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    s_r = cache.similarity(batch)
    u1, u2 = trainer.update_u(state, batch, fwd.s - s_r)
    full = (state.u1, state.u2)  # every pair's u, not the batch's
    for u in ((np.ones(7), u2), (u1, np.ones((8, 1))), full, (u1,)):
        with pytest.raises(ValueError, match="u:"):
            trainer.gradient_estimator(state, u, fwd, ds.xs[batch], ds.ys[batch], fwd.s - s_r)
        with pytest.raises(ValueError, match="u:"):
            trainer.tau_gradient(state, u, fwd.s - s_r)


@pytest.mark.parametrize("distill", [False, True], ids=["plain", "distill"])
@pytest.mark.parametrize("method", ["drrho-clip", "fastclip"])
def test_first_step_hands_fresh_u_to_estimators(method, distill):
    ds = data.generate_synthetic(48, 12, 10, 4, 0.2, 0.25, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=77))
    config = trainer.TrainConfig(
        method=method, steps=1, batch_size=12, embed_dim=6, lr=5e-3, tau_learnable=True, distill=distill
    )
    got, _ = trainer.train(config, ds, cache)

    pool = trainer._train_pool(ds, config.train_fraction)
    rng = CounterRng(config.seed, trainer._STREAM_BATCHES)
    batch = trainer._EpochSampler(pool, config.batch_size, rng).next_batch()
    model = encoder.init_model(config.embed_dim, ds.d_x, ds.d_y, config.seed, tau=config.tau_init)
    state = trainer.init_trainer_state(model, ds.n, config)
    xs, ys = ds.xs[batch], ds.ys[batch]
    fwd = encoder.batch_forward(model, xs, ys)
    s = fwd.s - cache.similarity(batch) if method == "drrho-clip" else fwd.s
    u = trainer.update_u(state, batch, s)
    grads = trainer.gradient_estimator(state, u, fwd, xs, ys, s)
    grads["tau"] = np.asarray([trainer.tau_gradient(state, u, s)])
    if distill:
        # Distillation reads the reference similarity itself, not s.
        coef = baselines.distillation_grad_s(fwd.s, cache.similarity(batch), model.tau, cache.source_tau)
        dist = encoder.similarity_backward(fwd, xs, ys, coef)
        for name in ("w1", "w2"):
            grads[name] = (1.0 - config.lam) * grads[name] + config.lam * dist[name]
        grads["tau"] = (1.0 - config.lam) * grads["tau"]
    trainer.optimizer_step(state, grads)

    assert np.array_equal(got.model.w1, state.model.w1) and np.array_equal(got.model.w2, state.model.w2)
    assert got.model.tau == state.model.tau
    assert np.array_equal(got.u1, state.u1) and np.array_equal(got.u2, state.u2)
    for key in state.moments:
        assert np.array_equal(got.moments[key], state.moments[key])


def _exact_objective_fn(ds, s_r, tau, which, other_w):
    def f(w):
        if which == "w1":
            model = encoder.TwoTowerModel(w1=w, w2=other_w, tau=tau)
        else:
            model = encoder.TwoTowerModel(w1=other_w, w2=w, tau=tau)
        s = encoder.batch_forward(model, ds.xs, ds.ys).s
        return contrastive.global_objective(s, s_r, tau=tau, over=contrastive.OVER_EXCLUDE)

    return f


def test_gradient_matches_finite_differences_of_exact_objective():
    ds, cache, state, _ = _setup(n=12, gamma=1.0, epsilon=0.0, tau=0.5, seed=3)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    u = trainer.update_u(state, batch, fwd.s - s_r)
    grads = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, fwd.s - s_r)
    model = state.model
    fd1 = finite_diff_matrix(_exact_objective_fn(ds, s_r, 0.5, "w1", model.w2), model.w1)
    fd2 = finite_diff_matrix(_exact_objective_fn(ds, s_r, 0.5, "w2", model.w1), model.w2)
    assert rel_err(grads["w1"], fd1) <= 1e-4
    assert rel_err(grads["w2"], fd2) <= 1e-4


def test_gradient_reference_uniform_offdiag_shift_cancels():
    # scaling every exponential by a constant cancels against u when eps=0
    ds, cache, state, _ = _setup(gamma=1.0, epsilon=0.0)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    u = trainer.update_u(state, batch, fwd.s - s_r)
    base = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, fwd.s - s_r)

    shifted = s_r + 0.31 * (1.0 - np.eye(ds.n))
    state2 = trainer.init_trainer_state(state.model.copy(), ds.n, _setup()[3])
    state2.config.gamma, state2.config.epsilon = 1.0, 0.0
    u = trainer.update_u(state2, batch, fwd.s - shifted)
    got = trainer.gradient_estimator(state2, u, fwd, ds.xs, ds.ys, fwd.s - shifted)
    assert rel_err(got["w1"], base["w1"]) < 1e-12
    assert rel_err(got["w2"], base["w2"]) < 1e-12


def test_gradient_self_reference_closed_form():
    # target == reference: all exponentials are 1, u = 1, so the gradient is
    # the plain mean of pairwise similarity-gradient gaps over both sides
    ds, cache, state, _ = _setup(n=6, gamma=1.0, epsilon=0.0)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    u = trainer.update_u(state, batch, fwd.s - fwd.s)
    got = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, fwd.s - fwd.s)
    n = ds.n
    want1 = np.zeros_like(state.model.w1)
    want2 = np.zeros_like(state.model.w2)
    for i in range(n):
        gii_1, gii_2 = similarity_grad(state.model, ds.xs[i], ds.ys[i])
        for j in range(n):
            if j == i:
                continue
            gij_1, gij_2 = similarity_grad(state.model, ds.xs[i], ds.ys[j])
            gji_1, gji_2 = similarity_grad(state.model, ds.xs[j], ds.ys[i])
            want1 += (gij_1 - gii_1) + (gji_1 - gii_1)
            want2 += (gij_2 - gii_2) + (gji_2 - gii_2)
    want1 /= n * (n - 1)
    want2 /= n * (n - 1)
    assert rel_err(got["w1"], want1) < 1e-10
    assert rel_err(got["w2"], want2) < 1e-10


def test_tau_gradient_zero_losses_and_mode_guard():
    ds, cache, state, _ = _setup(gamma=1.0, epsilon=0.0, tau_learnable=True, rho_tau=11.0)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    u = trainer.update_u(state, batch, fwd.s - fwd.s)
    assert trainer.tau_gradient(state, u, fwd.s - fwd.s) == pytest.approx(22.0, abs=1e-12)
    state.config.tau_learnable = False
    with pytest.raises(StateError):
        trainer.tau_gradient(state, u, fwd.s - fwd.s)


def test_tau_gradient_matches_finite_differences():
    from oracles import finite_diff_scalar

    ds, cache, state, _ = _setup(n=12, gamma=1.0, epsilon=0.0, tau=0.4, seed=5, tau_learnable=True, rho_tau=2.0)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    u = trainer.update_u(state, batch, fwd.s - s_r)
    got = trainer.tau_gradient(state, u, fwd.s - s_r)

    def objective(tau):
        return (
            contrastive.global_objective(fwd.s, s_r, tau=tau, over=contrastive.OVER_EXCLUDE)
            + 2.0 * tau * state.config.rho_tau
        )

    fd = finite_diff_scalar(objective, 0.4)
    assert abs(got - fd) / max(1e-8, abs(fd)) <= 1e-4


def test_tau_clamp_at_floor():
    ds, cache, state, _ = _setup(tau_learnable=True)
    state.model.tau = trainer.TAU_MIN + 1e-5
    state.config.lr = 10.0  # force a huge update
    trainer.optimizer_step(state, {"tau": np.array([100.0])})
    assert state.model.tau == trainer.TAU_MIN


def test_optimizer_zero_gradient_cases():
    ds, cache, state, _ = _setup()
    w1_before = state.model.w1.copy()
    lr = state.lr_at(0)
    trainer.optimizer_step(state, {"w1": np.zeros_like(w1_before)})
    assert np.array_equal(state.model.w1, w1_before * (1 - lr * trainer.WEIGHT_DECAY))
    assert state.step == 1


def test_optimizer_single_step_hand_formula():
    ds, cache, state, _ = _setup()
    g = encoder.init_model(state.model.d, ds.d_x, ds.d_y, seed=123).w1  # arbitrary values
    w_before = state.model.w1.copy()
    lr = state.lr_at(0)
    trainer.optimizer_step(state, {"w1": g})
    want = w_before * (1 - lr * trainer.WEIGHT_DECAY) - lr * g / (np.abs(g) + trainer.OPT_EPS)
    assert np.allclose(state.model.w1, want, atol=1e-12)


def test_optimizer_rejects_non_finite():
    ds, cache, state, _ = _setup()
    bad = np.full_like(state.model.w1, np.nan)
    with pytest.raises(TrainingError):
        trainer.optimizer_step(state, {"w1": bad})


def test_overflowing_update_names_step_and_parameter():
    # Step 1 leaves the weights finite but huge; step 2's update overflows.
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.125, seed=0)
    config = trainer.TrainConfig(method="openclip", batch_size=16, lr=1e308)
    with pytest.raises(TrainingError, match=r"^step 2: non-finite 'w1' after the update"):
        trainer.train(config, ds)


def test_lr_schedule_warmup_then_cosine_to_zero():
    ds, cache, state, _ = _setup()
    state.config.lr, state.config.steps = 1.0, 100
    assert state.lr_at(0) == pytest.approx(0.1)
    assert state.lr_at(9) == pytest.approx(1.0)
    assert state.lr_at(10) == pytest.approx(1.0)
    assert state.lr_at(100) == pytest.approx(0.0, abs=1e-12)
    assert state.lr_at(55) == pytest.approx(0.5, abs=1e-12)


def test_train_deterministic_and_t0():
    ds = data.generate_synthetic(48, 12, 10, 4, 0.2, 0.25, seed=2)
    ref = encoder.init_model(6, 12, 10, seed=77)
    cache = data.build_reference_cache(ds, ref)
    config = trainer.TrainConfig(method="drrho-clip", steps=25, batch_size=12, embed_dim=6, lr=5e-3, seed=9)
    s1, r1 = trainer.train(config, ds, cache)
    s2, r2 = trainer.train(config, ds, cache)
    assert s1.model.w1.tobytes() == s2.model.w1.tobytes()
    assert s1.model.w2.tobytes() == s2.model.w2.tobytes()
    assert r1.to_json_dict() == r2.to_json_dict()

    config0 = trainer.TrainConfig(method="drrho-clip", steps=0, batch_size=12, embed_dim=6, seed=9)
    s0, r0 = trainer.train(config0, ds, cache)
    assert s0.step == 0
    assert r0.series == []
    init = encoder.init_model(6, 12, 10, seed=9, tau=config0.tau)
    assert np.array_equal(s0.model.w1, init.w1)


def test_train_monitored_descent():
    ds = data.generate_synthetic(64, 16, 14, 5, 0.2, 0.0, seed=4)
    ref = encoder.init_model(8, 16, 14, seed=88)
    cache = data.build_reference_cache(ds, ref)
    config = trainer.TrainConfig(
        method="drrho-clip", steps=200, batch_size=16, embed_dim=8, lr=5e-3, tau=0.1, seed=1
    )
    init_model_ = encoder.init_model(8, 16, 14, seed=1, tau=0.1)
    batch = ds.train_indices
    s_ref = cache.similarity(batch)

    def exact(model):
        s = encoder.batch_forward(model, ds.xs[batch], ds.ys[batch]).s
        return contrastive.global_objective(s, s_ref, tau=0.1, over=contrastive.OVER_EXCLUDE)

    start = exact(init_model_)
    state, _ = trainer.train(config, ds, cache)
    end = exact(state.model)
    assert end < start


def test_train_cache_mismatch_rejected():
    ds = data.generate_synthetic(32, 12, 10, 4, 0.2, 0.25, seed=2)
    other = data.generate_synthetic(32, 12, 10, 4, 0.2, 0.25, seed=3)
    ref = encoder.init_model(6, 12, 10, seed=77)
    cache_other = data.build_reference_cache(other, ref)
    config = trainer.TrainConfig(method="drrho-clip", steps=5, batch_size=8, embed_dim=6)
    with pytest.raises(ConfigError):
        trainer.train(config, ds, cache_other)


def test_train_missing_cache_rejected():
    ds = data.generate_synthetic(32, 12, 10, 4, 0.2, 0.25, seed=2)
    config = trainer.TrainConfig(method="drrho-clip", steps=5, batch_size=8, embed_dim=6)
    with pytest.raises(ConfigError):
        trainer.train(config, ds, None)


@pytest.mark.parametrize("method", ["jest", "jest-topk"])
def test_train_rejects_more_jest_chunks_than_selected_pairs(method):
    # a 120-pair pool fills the 80-pair super batches; each step selects 16
    ds = data.generate_synthetic(160, 12, 10, 4, 0.2, 0.25, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=77))
    config = trainer.TrainConfig(method=method, steps=1, batch_size=16, embed_dim=6, jest_chunks=17)
    with pytest.raises(ConfigError, match="jest_chunks"):
        trainer.train(config, ds, cache)
    state, _ = trainer.train(replace(config, jest_chunks=16), ds, cache)
    assert state.step == config.effective_steps


@pytest.mark.parametrize("method", ["drrho-clip", "fastclip"])
def test_eval_point_matches_exact_objective_and_loss_variance(method):
    ds = data.generate_synthetic(96, 12, 10, 4, 0.2, 0.25, seed=5)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=66))
    config = trainer.TrainConfig(
        method=method, steps=12, batch_size=12, embed_dim=6, lr=5e-3, train_fraction=0.75, eval_subset=32, seed=3
    )
    state, rep = trainer.train(config, ds, cache if config.needs_reference else None)
    subset = trainer._train_pool(ds, config.train_fraction)[: config.eval_subset]
    s = encoder.batch_forward(state.model, ds.xs[subset], ds.ys[subset]).s
    s_ref = cache.similarity(subset) if method == "drrho-clip" else None
    var = experiments.loss_variance(s, s_ref)
    final = rep.summary
    assert final["objective"] == contrastive.global_objective(
        s, s_ref, tau=state.model.tau, over=contrastive.OVER_EXCLUDE
    )
    assert final["loss_variance_image"] == var.image_mean
    assert final["loss_variance_text"] == var.text_mean


@pytest.mark.parametrize("method", ["openclip", "jest"])
def test_eval_point_infonce_matches_loop_oracle(method):
    # 160 pairs leave a 120-pair pool, enough for JEST's 60-pair super batches.
    ds = data.generate_synthetic(160, 12, 10, 4, 0.2, 0.25, seed=5)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=66))
    config = trainer.TrainConfig(method=method, steps=12, batch_size=12, embed_dim=6, lr=5e-3, eval_subset=32, seed=3)
    state, rep = trainer.train(config, ds, cache if config.needs_reference else None)
    subset = trainer._train_pool(ds, config.train_fraction)[: config.eval_subset]
    s = encoder.batch_forward(state.model, ds.xs[subset], ds.ys[subset]).s
    final = rep.summary
    assert rel_err(final["objective"], infonce_direct(s, state.model.tau)) <= 1e-12
    var = experiments.loss_variance(s)
    assert final["loss_variance_image"] == var.image_mean
    assert final["loss_variance_text"] == var.text_mean


@pytest.mark.parametrize("method", ["drrho-clip", "fastclip", "openclip", "jest"])
def test_eval_point_transient_memory(method):
    # The monitored-small-batch shape: a 640-pair pool, 128 test pairs, eval_subset=128.
    ds = data.generate_synthetic(640, 24, 20, 4, 0.3, 0.2, seed=0)
    cache = data.build_reference_cache(ds, encoder.init_model(16, 24, 20, seed=5))
    config = trainer.TrainConfig(method=method, steps=150, batch_size=48, embed_dim=8, eval_subset=128)
    model = encoder.init_model(8, 24, 20, seed=1, tau=0.07)
    evaluator = trainer._Evaluator(config, ds, cache, trainer._train_pool(ds, 1.0))
    rep = report.ExperimentReport(config_snapshot={})
    evaluator.record(rep, model, 1)  # the first point; later ones are the steady state
    tracemalloc.start()
    try:
        evaluator.record(rep, model, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_checkpoint_round_trip(tmp_path):
    ds = data.generate_synthetic(32, 12, 10, 4, 0.2, 0.25, seed=2)
    ref = encoder.init_model(6, 12, 10, seed=77)
    cache = data.build_reference_cache(ds, ref)
    config = trainer.TrainConfig(method="drrho-clip", steps=8, batch_size=8, embed_dim=6, seed=5)
    state, _ = trainer.train(config, ds, cache)
    path = tmp_path / "t.ckpt"
    trainer.save_checkpoint(state, path)
    back = trainer.load_checkpoint(path)
    assert back.step == state.step
    assert back.model.w1.tobytes() == state.model.w1.tobytes()
    assert back.u1.tobytes() == state.u1.tobytes()
    assert back.u2.tobytes() == state.u2.tobytes()
    for key in state.moments:
        assert back.moments[key].tobytes() == state.moments[key].tobytes()
    assert back.config.resolved() == state.config.resolved()


def _edit_checkpoint_meta(tmp_path, edit):
    ds = data.generate_synthetic(32, 12, 10, 4, 0.2, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=4, batch_size=8, embed_dim=6, seed=5)
    state, _ = trainer.train(config, ds)
    path = tmp_path / "t.ckpt"
    trainer.save_checkpoint(state, path)
    manifest = json.loads(container.manifest_path(path).read_text())
    edit(manifest["meta"])
    container.manifest_path(path).write_text(json.dumps(manifest))
    return path


def test_checkpoint_without_run_config_is_format_error(tmp_path):
    # the earlier layout copied 14 fields by hand and had no method
    def old_layout(meta):
        old = {"step": 4, "gamma": 0.8, "epsilon": 1e-8, "base_lr": 0.01, "warmup_steps": 1, "total_steps": 4,
               "weight_decay": 0.1, "beta1": 0.9, "beta2": 0.98, "opt_eps": 1e-8, "tau_learnable": True,
               "tau_min": 0.005, "tau_lr_scale": 0.25, "rho_tau": 11.0, "rng_seed": 5,
               "model_id_hash": meta["model_id_hash"]}
        meta.clear()
        meta.update(old)

    with pytest.raises(FormatError, match="method"):
        trainer.load_checkpoint(_edit_checkpoint_meta(tmp_path, old_layout))


def test_checkpoint_with_retired_config_keys_loads(tmp_path):
    # earlier checkpoints also recorded optimizer, tau-floor and JEST
    # constants as config fields; those keys are ignored on load
    retired = {"weight_decay": 0.1, "beta1": 0.9, "beta2": 0.98, "opt_eps": 1e-8, "tau_min": 0.005,
               "tau_lr_scale": 0.25, "distill_tau_ref": None, "jest_sample_tau": 1.0, "jest_iter_multiplier": 1.87}
    back = trainer.load_checkpoint(_edit_checkpoint_meta(tmp_path, lambda meta: meta.update(retired)))
    config = trainer.TrainConfig(method="fastclip", steps=4, batch_size=8, embed_dim=6, seed=5)
    assert back.config.resolved() == config.resolved()


def test_checkpoint_invalid_config_names_field(tmp_path):
    path = _edit_checkpoint_meta(tmp_path, lambda meta: meta.update(gamma=0.0))
    with pytest.raises(ConfigError, match="gamma"):
        trainer.load_checkpoint(path)


@pytest.mark.parametrize(
    "field, value",
    [("gamma", "0.8"), ("steps", 4.0), ("distill", 0), ("seed", True), ("tau_learnable", "yes"), ("step", [4])],
)
def test_checkpoint_mistyped_meta_names_field(tmp_path, field, value):
    path = _edit_checkpoint_meta(tmp_path, lambda meta: meta.update({field: value}))
    with pytest.raises(FormatError, match=field):
        trainer.load_checkpoint(path)


def test_config_validation_names_field():
    cases = [
        ("gamma", 0.0),
        ("method", "bogus"),
        ("lam", 1.5),
        ("eval_every", 0),
        ("eval_every", -1),
        ("tau", float("inf")),
        ("epsilon", float("inf")),
        ("rho_tau", float("inf")),
        ("lr", float("inf")),
        ("tau_init", float("inf")),
        ("gamma", float("nan")),
    ]
    for field, value in cases:
        with pytest.raises(ConfigError, match=field):
            trainer.TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize("seed", [-1, 2**63, 5 + 2**64])
def test_seed_whose_derived_seeds_could_wrap_is_config_error(seed):
    # Seeds are masked to 64 bits inside the generator, so 5 + 2**64 would
    # train exactly as 5 does while its report records another seed.
    ds, cache, _, config = _setup()
    with pytest.raises(ConfigError, match="seed"):
        trainer.train(replace(config, seed=seed, steps=1), ds, cache)
    trainer.TrainConfig(seed=2**63 - 1).validate()


def test_non_finite_gradient_names_the_step():
    ds, cache, state, config = _setup()
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    grads = encoder.similarity_backward(fwd, ds.xs, ds.ys, np.full(fwd.s.shape, np.nan))
    state.step = 6
    with pytest.raises(TrainingError, match=r"^step 7: non-finite gradient for 'w1'"):
        trainer.optimizer_step(state, grads)
