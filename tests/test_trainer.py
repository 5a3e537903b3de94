"""Estimator maintenance, gradient estimators, optimizer, and the loop."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drrho import baselines, contrastive, data, encoder, experiments, report, trainer
from drrho.errors import ConfigError, StateError, TrainingError
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
    q1, q2 = trainer.shifted_gap_exponentials(s, state.model.tau)
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
    state.u[0] = 0.7
    state.u[1] = 0.4
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    trainer.update_u(state, batch, fwd.s - cache.similarity(batch))
    assert (state.u[0] == 0.7).all() and (state.u[1] == 0.4).all()


def test_update_u_two_step_hand_recurrence():
    ds, cache, state, _ = _setup(gamma=0.5)
    u0 = 0.3
    state.u[:] = u0
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    m1, m2 = _batch_means(state, batch, fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)  # same step, same losses
    assert np.allclose(state.u[0, batch], 0.25 * u0 + 0.75 * m1, atol=1e-15)
    assert np.allclose(state.u[1, batch], 0.25 * u0 + 0.75 * m2, atol=1e-15)


def test_update_u_first_touch_and_untouched_entries():
    ds, cache, state, _ = _setup(gamma=0.5)
    batch = np.arange(4)  # partial batch
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    s_r = cache.similarity(batch)
    m1, _ = _batch_means(state, batch, fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)
    # cold indices take the full average despite gamma=0.5
    assert np.allclose(state.u[0, batch], m1, atol=0)
    assert (state.u[:, 4:] == 0).all()


def test_update_u_matches_per_index_loop():
    ds, cache, state, _ = _setup(n=12, gamma=0.3)
    state.u[0, [1, 5, 7, 10]] = [0.2, 1.7, 0.0, 3.1]
    state.u[1, [0, 5, 9]] = [0.9, 0.05, 2.4]
    batch = np.array([9, 1, 5, 0, 7, 11, 3])  # unsorted, cold and warm mixed
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    s_r = cache.similarity(batch)
    u = state.u.copy()
    update_u_direct(u[0], u[1], batch, *_batch_means(state, batch, fwd.s - s_r), state.config.gamma)
    trainer.update_u(state, batch, fwd.s - s_r)
    assert np.array_equal(state.u, u)


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
    assert not state.u.any()


def test_u_positivity_and_bound():
    ds, cache, state, _ = _setup(gamma=0.7)
    batch = np.arange(ds.n)
    fwd = encoder.batch_forward(state.model, ds.xs, ds.ys)
    s_r = cache.similarity(batch)
    gaps1, gaps2 = contrastive.shifted_gaps(fwd.s - s_r)
    trainer.update_u(state, batch, fwd.s - s_r)
    bound = np.exp(max(gaps1.max(), gaps2.max()) / state.model.tau)
    assert (state.u[:, batch] > 0).all()
    assert (state.u[0, batch] <= bound + 1e-12).all()


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
        assert np.max(np.abs(state.u[0] - m1)) < 1e-12
        assert np.max(np.abs(state.u[1] - m2)) < 1e-12
        grads = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, fwd.s - s_r)
        trainer.optimizer_step(state, grads)


def test_estimators_reject_u_of_wrong_shape():
    ds, cache, state, _ = _setup(tau_learnable=True)
    batch = np.arange(8)
    fwd = encoder.batch_forward(state.model, ds.xs[batch], ds.ys[batch])
    s_r = cache.similarity(batch)
    u1, u2 = trainer.update_u(state, batch, fwd.s - s_r)
    full = state.u  # every pair's u, not the batch's
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
    batch = pool[CounterRng(config.seed, trainer._STREAM_BATCHES).permutation(len(pool))][: config.batch_size]
    model = encoder.init_model(config.embed_dim, ds.d_x, ds.d_y, config.seed, tau=config.start_tau)
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
    assert np.array_equal(got.u, state.u)
    assert np.array_equal(got.m, state.m) and np.array_equal(got.v, state.v)
    assert (got.m_tau, got.v_tau) == (state.m_tau, state.v_tau)


def _exact_objective_fn(ds, s_r, tau, which, other_w):
    def f(w):
        if which == "w1":
            model = encoder.TwoTowerModel(w1=w, w2=other_w, tau=tau)
        else:
            model = encoder.TwoTowerModel(w1=other_w, w2=w, tau=tau)
        s = encoder.batch_forward(model, ds.xs, ds.ys).s
        return contrastive.global_objective(s - s_r, tau=tau)

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
            contrastive.global_objective(fwd.s - s_r, tau=tau)
            + 2.0 * tau * state.config.rho_tau
        )

    fd = finite_diff_scalar(objective, 0.4)
    assert abs(got - fd) / max(1e-8, abs(fd)) <= 1e-4


def _tau_gradient_from_gaps(state, u, s):
    """The tau gradient over held gaps, sum_j q_ij * gap_ij with the gaps of
    ``contrastive.shifted_gaps``; and the sum of its terms' magnitudes."""
    b, tau = len(s), state.model.tau
    denom = state.config.epsilon + np.asarray(u)
    total = scale = 2.0 * state.config.rho_tau
    for side, gaps in enumerate(contrastive.shifted_gaps(s)):
        q = np.exp(gaps / tau)
        np.fill_diagonal(q, 0.0)
        inner = (q * gaps).sum(axis=1) / ((b - 1) * tau)
        total += np.mean(np.log(denom[side]) - inner / denom[side])
        scale += np.mean(np.abs(np.log(denom[side])) + np.abs(inner / denom[side]))
    return total, scale


@pytest.mark.parametrize("tau", [trainer.TAU_MIN, 0.07, 0.5])
@pytest.mark.parametrize("b", [2, 3, 48, 257])
def test_tau_gradient_matches_held_gap_oracle(b, tau):
    # rho_tau = 0 leaves only the data terms. At b=2 with cold u each anchor
    # has one negative, whose log q - gap / tau is 0: the gradient cancels to
    # rounding, so the error is measured against the size of the terms summed.
    ds = data.generate_synthetic(b + 2, 6, 5, 3, 0.2, 0.0, seed=b)
    cache = data.build_reference_cache(ds, encoder.init_model(4, 6, 5, seed=b + 50))
    model = encoder.init_model(4, 6, 5, seed=b + 1, tau=tau)
    batch = np.arange(1, b + 1)
    plain = encoder.batch_forward(model, ds.xs[batch], ds.ys[batch]).s
    config = trainer.TrainConfig(batch_size=b, embed_dim=4, tau_learnable=True, rho_tau=0.0)
    for s in (plain, plain - cache.similarity(batch)):
        for warm in (False, True):
            state = trainer.init_trainer_state(model.copy(), ds.n, config)
            if warm:
                state.u[:] = CounterRng(b, 0).uniforms(2 * ds.n).reshape(2, -1) * 3.0 + 0.1
            u = trainer.update_u(state, batch, s)
            want, scale = _tau_gradient_from_gaps(state, u, s)
            assert abs(trainer.tau_gradient(state, u, s) - want) <= 1e-12 * scale


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
    init = encoder.init_model(6, 12, 10, seed=9, tau=config0.start_tau)
    assert np.array_equal(s0.model.w1, init.w1)


def _outputs(state, rep):
    arrays = [state.model.w1, state.model.w2, state.u, state.m, state.v]
    moments = state.m_tau, state.v_tau
    return [a.tobytes() for a in arrays], moments, state.model.tau, state.step, rep.to_json_dict()


def _pool_of_120():
    ds = data.generate_synthetic(160, 12, 10, 4, 0.2, 0.25, seed=6)
    return ds, data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=60))


@pytest.mark.parametrize("tau_learnable", [True, False], ids=["learned-tau", "fixed-tau"])
@pytest.mark.parametrize("distill", [False, True], ids=["plain", "distill"])
@pytest.mark.parametrize("method", trainer.METHODS)
def test_stepped_run_equals_train(method, distill, tau_learnable):
    # 12 steps cross an epoch of 10 batches; JEST's 22 steps cross ten of 2.
    ds, cache = _pool_of_120()
    config = trainer.TrainConfig(
        method=method, steps=12, batch_size=12, embed_dim=6, lr=5e-3, tau_learnable=tau_learnable,
        distill=distill, eval_every=3, eval_subset=32,
    )
    run = trainer.start_run(config, ds, cache)
    assert run.state.step == 0 and run.report.series == []
    for _ in range(config.effective_steps):
        trainer.step(run)
    assert _outputs(run.state, run.report) == _outputs(*trainer.train(config, ds, cache))


@pytest.mark.parametrize("method", trainer.METHODS)
def test_zero_steps_return_the_initial_state_and_no_points(method):
    ds, cache = _pool_of_120()
    config = trainer.TrainConfig(method=method, steps=0, batch_size=12, embed_dim=6, seed=4)
    state, rep = trainer.train(config, ds, cache)
    init = encoder.init_model(6, 12, 10, seed=4, tau=config.start_tau)
    assert state.step == 0 and rep.series == []
    assert state.model.w1.tobytes() == init.w1.tobytes() and state.model.w2.tobytes() == init.w2.tobytes()
    assert state.model.tau == init.tau
    assert not state.u.any() and not state.m.any() and not state.v.any() and state.m_tau == state.v_tau == 0.0
    assert rep.provenance == {"dataset_hash": ds.content_hash(), "cache_source_id": cache.source_id, "seed": 4}


@pytest.mark.parametrize("method", trainer.METHODS)
def test_u_is_positive_exactly_on_the_pairs_a_step_drew(method):
    # 5 steps of 12 pairs stay inside the first epoch's order of the 120-pair pool.
    ds, cache = _pool_of_120()
    config = trainer.TrainConfig(method=method, steps=5, batch_size=12, embed_dim=6, lr=5e-3, eval_every=10**6)
    state, _ = trainer.train(config, ds, cache)
    run = trainer.start_run(config, ds, cache)
    for _ in range(config.effective_steps):
        trainer.step(run)
    assert np.array_equal(run.state.u, state.u) and state.u.shape == (2, ds.n)
    if method not in ("fastclip", "drrho-clip"):
        assert not state.u.any()
        return
    drawn = run.order[: config.steps * config.batch_size]
    cold = np.setdiff1d(np.arange(ds.n), drawn)
    assert len(cold) == ds.n - len(drawn) > 0
    assert (state.u[:, drawn] > 0).all() and (state.u[:, cold] == 0).all()


@pytest.mark.parametrize(
    "method, tau_learnable, tau, start",
    [
        ("fastclip", None, 0.05, 0.05),
        ("drrho-clip", True, 0.03, 0.03),
        ("drrho-clip", None, 0.03, 0.03),
        ("fastclip", None, None, 0.07),
        ("drrho-clip", True, None, 0.07),
        ("drrho-clip", None, None, 0.01),
        ("openclip", False, None, 0.01),
    ],
)
def test_config_tau_is_the_temperature_the_run_starts_at(method, tau_learnable, tau, start):
    ds, cache = _pool_of_120()
    config = trainer.TrainConfig(method=method, tau_learnable=tau_learnable, tau=tau, steps=2, batch_size=12, embed_dim=6)
    run = trainer.start_run(config, ds, cache)
    assert run.state.model.tau == run.report.config_snapshot["tau"] == start
    assert "tau_init" not in run.report.config_snapshot


@pytest.mark.parametrize("method, b, size", [("fastclip", 12, 12), ("drrho-clip", 7, 7), ("jest", 6, 12)])
def test_batches_are_a_function_of_the_step(monkeypatch, method, b, size):
    """Epoch e's order is the pool under the e-th permutation of the batch
    stream; its k = len(pool) // size batches are disjoint slices of it in
    turn, and the remainder is dropped. Under JEST the draw is the super
    batch that selection reads."""
    ds, cache = _pool_of_120()
    drawn = []
    if method == "jest":
        select = baselines.jest_select

        def spy(current, reference, candidates, **kwargs):
            drawn.append(np.array(candidates))
            return select(current, reference, candidates, **kwargs)

        monkeypatch.setattr(baselines, "jest_select", spy)
    else:
        update = trainer.update_u

        def spy(state, batch, s, out=None):
            drawn.append(np.array(batch))
            return update(state, batch, s, out=out)

        monkeypatch.setattr(trainer, "update_u", spy)
    config = trainer.TrainConfig(
        method=method, steps=60, batch_size=b, embed_dim=6, jest_ratio=0.5, train_fraction=0.95, eval_every=10**6
    )
    run = trainer.start_run(config, ds, cache)
    pool, k = run.pool, len(run.pool) // size
    assert run.size == size and len(pool) % size  # every epoch has a remainder to drop
    for _ in range(3 * k):
        trainer.step(run)
    assert len(drawn) == 3 * k and all(len(batch) == size for batch in drawn)
    rng = CounterRng(config.seed, trainer._STREAM_BATCHES)
    for e in range(3):
        order = pool[rng.permutation(len(pool))]
        epoch = np.concatenate(drawn[e * k : (e + 1) * k])
        assert len(np.unique(epoch)) == k * size
        assert np.array_equal(epoch, order[: k * size])


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
        return contrastive.global_objective(s - s_ref, tau=0.1)

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


@pytest.mark.parametrize("distill", [False, True], ids=["plain", "distill"])
@pytest.mark.parametrize("learnable", [True, False], ids=["learned-tau", "fixed-tau"])
@pytest.mark.parametrize("method", trainer.METHODS)
def test_eval_cadence_leaves_the_trained_state_unchanged(method, learnable, distill):
    # Runs whose report is discarded record only their final eval point;
    # that is safe only while an eval point reads the model and writes nothing.
    ds = data.generate_synthetic(64, 12, 10, 4, 0.2, 0.25, seed=6)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=44))
    config = trainer.TrainConfig(
        method=method, steps=6, batch_size=8, embed_dim=6, lr=5e-3, tau_learnable=learnable, distill=distill,
        eval_subset=16, seed=2,
    )
    every, final = (trainer.train(replace(config, eval_every=k), ds, cache)[0] for k in (1, config.effective_steps))
    assert every.model.w1.tobytes() == final.model.w1.tobytes()
    assert every.model.w2.tobytes() == final.model.w2.tobytes()
    assert every.model.tau == final.model.tau
    assert every.u.tobytes() == final.u.tobytes()
    assert every.m.tobytes() == final.m.tobytes() and every.v.tobytes() == final.v.tobytes()
    assert (every.m_tau, every.v_tau) == (final.m_tau, final.v_tau)


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
    if method == "drrho-clip":
        s = s - cache.similarity(subset)
    var = experiments.loss_variance(s)
    final = rep.summary
    assert final["objective"] == contrastive.global_objective(s, tau=state.model.tau)
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


def _eval_point_peak(method):
    """tracemalloc's peak over one steady-state eval point at the
    monitored-small-batch shape: a 640-pair pool, 128 test pairs, eval_subset=128."""
    ds = data.generate_synthetic(640, 24, 20, 4, 0.3, 0.2, seed=0)
    cache = data.build_reference_cache(ds, encoder.init_model(16, 24, 20, seed=5))
    config = trainer.TrainConfig(method=method, steps=150, batch_size=48, embed_dim=8, eval_subset=128)
    model = encoder.init_model(8, 24, 20, seed=1, tau=0.07)
    evaluator = trainer.start_run(config, ds, cache).evaluator
    rep = report.ExperimentReport(config_snapshot={})
    evaluator.record(rep, model, 1)  # the first point; later ones are the steady state
    tracemalloc.start()
    try:
        evaluator.record(rep, model, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("method", ["drrho-clip", "fastclip", "openclip", "jest"])
def test_eval_point_transient_memory(method):
    assert _eval_point_peak(method) <= 512 * 1024


@pytest.mark.parametrize("method", ["drrho-clip", "fastclip", "openclip", "jest"])
def test_eval_point_variances_use_the_held_buffer(method):
    # A fresh (2n, n - 1) array of squared deviations alone is 254 KiB at n=128.
    assert _eval_point_peak(method) <= 192 * 1024


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
        ("gamma", float("nan")),
        # counts that would overflow a float: JEST's super batch
        # batch_size / jest_ratio and its steps * JEST_ITER_MULTIPLIER
        ("jest_ratio", 5e-324),
        ("jest_ratio", 1e-300),
        ("steps", 10**400),
        ("batch_size", 10**400),
    ]
    for field, value in cases:
        with pytest.raises(ConfigError, match=field):
            trainer.TrainConfig(**{field: value}).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", 2.5),
        ("batch_size", 8.0),
        ("embed_dim", 4.0),
        ("eval_subset", 16.5),
        ("jest_chunks", 2.0),
        ("seed", 1.5),
        ("eval_every", 1.5),
        ("steps", True),
        ("tau_learnable", "yes"),
        ("distill", "no"),
        ("tau", True),
        pytest.param("lr", 10**400, id="lr-10**400"),
    ],
)
def test_train_rejects_a_field_of_the_wrong_type_naming_it(field, value):
    ds, cache = _pool_of_120()
    method = "jest" if field == "jest_chunks" else "drrho-clip"
    config = trainer.TrainConfig(method=method, steps=3, batch_size=12, embed_dim=6, eval_subset=32)
    with pytest.raises(ConfigError, match=f"^{field}: invalid {type(value).__name__} "):
        trainer.train(replace(config, **{field: value}), ds, cache)


def test_config_takes_an_int_where_a_float_is_annotated():
    trainer.TrainConfig(lr=1, tau=1, gamma=1, epsilon=0, lam=0, jest_ratio=1, train_fraction=1).validate()
    trainer.TrainConfig(tau=None, tau_learnable=None, eval_every=None).validate()


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


def test_non_finite_w2_gradient_names_w2_and_counts_its_entries():
    ds, cache, state, _ = _setup()
    g2 = np.zeros_like(state.model.w2)
    g2.flat[[0, 4, 7]] = [np.nan, np.inf, -np.inf]
    with pytest.raises(TrainingError, match=r"^step 1: non-finite gradient for 'w2' \(3 entries\)"):
        trainer.optimizer_step(state, {"w1": np.zeros_like(state.model.w1), "w2": g2})


def test_non_finite_tau_gradient_names_tau():
    ds, cache, state, _ = _setup(tau_learnable=True)
    grads = {"w1": np.zeros_like(state.model.w1), "w2": np.zeros_like(state.model.w2), "tau": np.array([np.nan])}
    with pytest.raises(TrainingError, match=r"^step 1: non-finite gradient for 'tau' \(1 entries\)"):
        trainer.optimizer_step(state, grads)


def test_update_overflowing_only_w2_names_w2():
    # A zero w1 with a zero gradient stays 0; w2 times 1 - lr * WEIGHT_DECAY overflows.
    ds, cache, state, _ = _setup()
    state.config.lr = 1e308
    state.model.w1[...] = 0.0
    state.model.w2[...] = 1e10
    grads = {"w1": np.zeros_like(state.model.w1), "w2": np.zeros_like(state.model.w2)}
    with pytest.raises(TrainingError, match=r"^step 1: non-finite 'w2' after the update"):
        trainer.optimizer_step(state, grads)
    assert not state.model.w1.any()


@pytest.mark.parametrize("given, other", [("w2", "w1"), ("w1", "w2")])
def test_gradient_of_one_tower_leaves_the_other_bit_unchanged(given, other):
    ds, cache, state, _ = _setup()
    draw = CounterRng(3, 0)
    grads = {name: draw.normals(getattr(state.model, name).shape) for name in ("w1", "w2")}
    trainer.optimizer_step(state, grads)  # moments of both towers nonzero
    k = state.model.w1.size
    span = slice(0, k) if other == "w1" else slice(k, None)
    kept = [getattr(state.model, other), state.m[span], state.v[span]]
    before = [a.tobytes() for a in kept]
    moved = getattr(state.model, given).copy()
    trainer.optimizer_step(state, {given: grads[given]})
    assert [a.tobytes() for a in kept] == before
    assert not np.array_equal(getattr(state.model, given), moved)


@pytest.mark.parametrize("name", ["w1", "w2"])
def test_optimizer_rejects_a_weight_rebound_since_the_state_was_made(name):
    ds, cache, state, _ = _setup()
    grads = {"w1": np.ones_like(state.model.w1), "w2": np.ones_like(state.model.w2)}
    trainer.optimizer_step(state, grads)  # moments nonzero
    setattr(state.model, name, getattr(state.model, name).copy())  # no longer a view of state.w
    before = state.step, state.w.tobytes(), state.m.tobytes(), state.v.tobytes()
    with pytest.raises(StateError, match=f"^{name}: rebound"):
        trainer.optimizer_step(state, grads)
    assert (state.step, state.w.tobytes(), state.m.tobytes(), state.v.tobytes()) == before


@pytest.mark.parametrize("u", [np.zeros(10), np.zeros((3, 10)), np.zeros((10, 2)), np.zeros((2, 10, 1))])
def test_trainer_state_rejects_u_not_of_shape_two_by_n(u):
    _, _, state, config = _setup()
    with pytest.raises(ConfigError, match=r"^u: expected shape \(2, n\)"):
        trainer.TrainerState(model=state.model.copy(), u=u, config=config)
