"""Acceptance suite: one test per criterion, each printing a pass line with
its measured margin and elapsed time. Tolerances are pinned here, not in
any config. Run `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from drrho import baselines, cli, contrastive, data, encoder, experiments, risk, trainer
from drrho.rng import CounterRng

from oracles import (
    chi2_grid_max,
    chi2_interior_closed_form,
    chi2_interior_holds,
    finite_diff_matrix,
    finite_diff_scalar,
    kl_constrained_grid,
    log_mean_exp_direct,
    rel_err,
    softmax_direct,
    topk_mean_direct,
)


def _report(criterion: str, detail: str, t0: float, budget_s: float) -> None:
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"{criterion} exceeded runtime budget: {elapsed:.1f}s > {budget_s}s"
    print(f"PASS {criterion}: {detail} [{elapsed:.1f}s]")


def test_criterion_1_risk_oracle_equivalence():
    t0 = time.time()
    rng = CounterRng(10)
    worst_direct = 0.0
    for _ in range(200):
        m = 2 + int(rng.uniforms(1)[0] * 12)
        v = rng.normals(m) * 2.0
        tau = 0.2 + rng.uniforms(1)[0]
        k = 1 + int(rng.uniforms(1)[0] * m) % m
        worst_direct = max(worst_direct, abs(risk.cvar_topk(v, k) - topk_mean_direct(v, k)))
        worst_direct = max(
            worst_direct, float(np.max(np.abs(risk.softmax_weights(v, tau) - softmax_direct(v, tau))))
        )
        worst_direct = max(
            worst_direct, abs(risk.kl_regularized_risk(v, tau) - log_mean_exp_direct(v, tau))
        )
    assert worst_direct <= 1e-10

    worst_klcon = 0.0
    for _ in range(3):
        v = rng.uniforms(5)
        got, _ = risk.kl_constrained_risk(v, 2.0, 5)
        worst_klcon = max(worst_klcon, abs(got - kl_constrained_grid(v, 2.0, 5)))
    assert worst_klcon <= 1e-6

    worst_grid = 0.0
    for n in (2, 3, 4):
        for _ in range(3):
            v = rng.uniforms(n)
            rho = 0.05 + 0.3 * rng.uniforms(1)[0]
            got, _ = risk.chi2_dro_risk(v, rho, n)
            worst_grid = max(worst_grid, abs(got - chi2_grid_max(v, rho)))
    assert worst_grid <= 1e-5

    worst_interior = 0.0
    interior_checked = 0
    while interior_checked < 20:
        n = 3 + int(rng.uniforms(1)[0] * 6)
        v = rng.normals(n) * 0.2
        rho = 0.02 + 0.05 * rng.uniforms(1)[0]
        if not chi2_interior_holds(v, rho):
            continue
        got, _ = risk.chi2_dro_risk(v, rho, n)
        worst_interior = max(worst_interior, abs(got - chi2_interior_closed_form(v, rho)))
        interior_checked += 1
    assert worst_interior <= 1e-8

    _report(
        "criterion 1 (risk-oracle equivalence)",
        f"direct<= {worst_direct:.1e}, kl-grid<= {worst_klcon:.1e}, "
        f"chi2-grid<= {worst_grid:.1e}, interior<= {worst_interior:.1e}",
        t0,
        60,
    )


def _fd_instance(seed: int, with_reference: bool) -> float:
    n, d, dx, dy, tau = 16, 6, 8, 7, 0.5
    ds = data.generate_synthetic(n, dx, dy, 4, 0.2, 0.0, seed=seed)
    if with_reference:
        ref = encoder.init_model(d, dx, dy, seed=seed + 500, tau=tau)
        s_ref = data.build_reference_cache(ds, ref).similarity(np.arange(n))
    else:
        s_ref = None
    model = encoder.init_model(d, dx, dy, seed=seed + 1, tau=tau)
    config = trainer.TrainConfig(
        method="drrho-clip" if with_reference else "fastclip",
        batch_size=n, embed_dim=d, gamma=1.0, epsilon=0.0, tau=tau, seed=seed,
    )
    state = trainer.init_trainer_state(model, n, config)
    batch = np.arange(n)
    fwd = encoder.batch_forward(model, ds.xs, ds.ys)
    s = contrastive.shifted_similarity(fwd.s, s_ref)
    u = trainer.update_u(state, batch, s)
    grads = trainer.gradient_estimator(state, u, fwd, ds.xs, ds.ys, s)

    def objective(w, which):
        m = (
            encoder.TwoTowerModel(w1=w, w2=model.w2, tau=tau)
            if which == "w1"
            else encoder.TwoTowerModel(w1=model.w1, w2=w, tau=tau)
        )
        s = encoder.batch_forward(m, ds.xs, ds.ys).s
        return contrastive.global_objective(s, s_ref, tau=tau, over=contrastive.OVER_EXCLUDE)

    err = rel_err(grads["w1"], finite_diff_matrix(lambda w: objective(w, "w1"), model.w1))
    err = max(err, rel_err(grads["w2"], finite_diff_matrix(lambda w: objective(w, "w2"), model.w2)))
    return err


def _fd_tau_instance(seed: int) -> float:
    n, d, dx, dy, tau, rho = 16, 6, 8, 7, 0.4, 2.0
    ds = data.generate_synthetic(n, dx, dy, 4, 0.2, 0.0, seed=seed)
    ref = encoder.init_model(d, dx, dy, seed=seed + 500, tau=tau)
    s_ref = data.build_reference_cache(ds, ref).similarity(np.arange(n))
    model = encoder.init_model(d, dx, dy, seed=seed + 1, tau=tau)
    config = trainer.TrainConfig(
        method="drrho-clip", batch_size=n, embed_dim=d, gamma=1.0, epsilon=0.0,
        tau_learnable=True, rho_tau=rho, seed=seed,
    )
    state = trainer.init_trainer_state(model, n, config)
    state.model.tau = tau
    batch = np.arange(n)
    fwd = encoder.batch_forward(model, ds.xs, ds.ys)
    s = fwd.s - s_ref
    u = trainer.update_u(state, batch, s)
    got = trainer.tau_gradient(state, u, s)

    def objective(t):
        return (
            contrastive.global_objective(fwd.s, s_ref, tau=t, over=contrastive.OVER_EXCLUDE)
            + 2.0 * t * rho
        )

    fd = finite_diff_scalar(objective, tau)
    return abs(got - fd) / max(1e-8, abs(fd))


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    worst_drrho = max(_fd_instance(seed, with_reference=True) for seed in range(10))
    worst_gcl = max(_fd_instance(seed, with_reference=False) for seed in range(10))
    worst_tau = max(_fd_tau_instance(seed) for seed in range(10))
    assert worst_drrho <= 1e-4
    assert worst_gcl <= 1e-4
    assert worst_tau <= 1e-4
    _report(
        "criterion 2 (gradient correctness)",
        f"max rel err: shifted {worst_drrho:.1e}, plain {worst_gcl:.1e}, tau {worst_tau:.1e}",
        t0,
        120,
    )


def test_criterion_3_zero_shift_identities():
    t0 = time.time()
    rng = CounterRng(33)
    for seed in range(5):
        n = 4 + seed
        e1 = rng.normals((n, 5))
        e2 = rng.normals((n, 5))
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
        s = e1 @ e2.T
        assert contrastive.global_objective(s, s, tau=0.07, over=contrastive.OVER_FULL) == 0.0
        var = experiments.loss_variance(s, s)
        assert (var.image_variances == 0.0).all()
        assert (var.text_variances == 0.0).all()
    _report("criterion 3 (zero-shift identities)", "objective and variances exactly 0.0", t0, 30)


def test_criterion_4_variance_reduction():
    t0 = time.time()
    wins_image = wins_text = 0
    for seed in range(10):
        out = experiments.variance_reduction_trial(seed)
        wins_image += out["rho_image"] < out["plain_image"]
        wins_text += out["rho_text"] < out["plain_text"]
    assert wins_image >= 9
    assert wins_text >= 9
    _report(
        "criterion 4 (variance reduction)",
        f"shifted < plain in {wins_image}/10 image and {wins_text}/10 text seeds",
        t0,
        600,
    )


def test_criterion_5_data_efficiency_direction():
    t0 = time.time()
    rows = [experiments.data_efficiency_trial(seed) for seed in range(5)]
    half = float(np.mean([r["drrho_half"] for r in rows]))
    full = float(np.mean([r["drrho_full"] for r in rows]))
    baseline = float(np.mean([r["baseline_full"] for r in rows]))
    assert half >= baseline - 0.02
    assert full > baseline
    _report(
        "criterion 5 (data efficiency)",
        f"half-data {half:.3f} vs baseline {baseline:.3f} (slack 0.02); "
        f"full-data {full:.3f} > baseline {baseline:.3f}",
        t0,
        1800,
    )


def test_criterion_6_scaling_fit():
    t0 = time.time()
    # exact synthetic recovery
    computes = np.array([3e4, 3e5, 3e6, 3e7])
    points = [experiments.ScalingPoint(c, 1.7 * c**-0.12) for c in computes]
    alpha, beta, residual = experiments.fit_scaling_law(points)
    assert abs(alpha - 1.7) <= 1e-9
    assert abs(beta + 0.12) <= 1e-9
    assert residual <= 1e-9

    # seeded benchmark suite: 3 model sizes x 3 compute budgets per method
    dataset = data.generate_synthetic(640, 24, 20, 4, 0.3, 0.2, seed=0)
    _, cache = experiments.train_reference(dataset)
    suite = experiments.scaling_suite(dataset, cache)
    beta_shifted = suite["drrho-clip"]["beta"]
    beta_baseline = suite["openclip"]["beta"]
    assert len(suite["drrho-clip"]["points"]) == 9
    assert suite["drrho-clip"]["residual"] >= 0.0  # residuals are reported
    assert beta_shifted < beta_baseline
    _report(
        "criterion 6 (scaling fit)",
        f"exact recovery 1e-9; beta shifted {beta_shifted:.4f} < baseline {beta_baseline:.4f} "
        f"(residuals {suite['drrho-clip']['residual']:.3f} / {suite['openclip']['residual']:.3f})",
        t0,
        2700,
    )


def test_criterion_7_baseline_contracts():
    t0 = time.time()
    rng = CounterRng(77)
    worst_grad = 0.0
    for seed in range(10):
        e1 = rng.normals((8, 6))
        e2 = rng.normals((8, 6))
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
        s = e1 @ e2.T
        grad = baselines.distillation_grad_s(s, s, 0.3, 0.3)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad))))
    assert worst_grad <= 1e-10

    for trial in range(100):
        m = 12 + int(rng.uniforms(1)[0] * 28)
        a = rng.normals((m, 5))
        b = rng.normals((m, 5))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        s_t = a @ b.T
        s_r = (a + 0.1 * rng.normals((m, 5))) @ b.T
        s_r /= np.abs(s_r).max()
        super_batch = np.arange(m)
        ratio = 0.2 + 0.3 * rng.uniforms(1)[0]
        chunks = 1 + trial % 3
        mode = "topk" if trial % 2 else "sample"
        out = baselines.jest_select(s_t, s_r, super_batch, ratio, chunks, mode=mode, seed=trial)
        k = baselines.selection_size(ratio, m)
        assert len(out.selected) == k
        assert len(set(out.selected.tolist())) == k
        assert set(out.selected) <= set(super_batch)
        again = baselines.jest_select(s_t, s_r, super_batch, ratio, chunks, mode=mode, seed=trial)
        assert np.array_equal(out.selected, again.selected)
        if mode == "topk" and chunks == 1:
            want = np.argsort(-np.diag(s_t), kind="stable")[:k]
            assert np.array_equal(out.selected, want)
    _report(
        "criterion 7 (baseline contracts)",
        f"distillation grad at match <= {worst_grad:.1e}; selection on 100 instances",
        t0,
        120,
    )


def test_criterion_8_determinism_and_round_trips(tmp_path):
    t0 = time.time()
    data_path = tmp_path / "d.dpd"
    assert cli.run(
        ["gen-data", "--n", "128", "--d-x", "12", "--d-y", "10", "--d-latent", "4",
         "--noise-sigma", "0.25", "--test-fraction", "0.25", "--seed", "3",
         "--output", str(data_path)]
    ) == 0

    ref_dir = tmp_path / "ref-run"
    assert cli.run(
        ["train", "--method", "fastclip", "--data", str(data_path), "--steps", "30",
         "--batch-size", "16", "--embed-dim", "6", "--seed", "1", "--output", str(ref_dir)]
    ) == 0
    cache_path = tmp_path / "c.emb"
    assert cli.run(
        ["ref-embed", "--data", str(data_path), "--model", str(ref_dir / "model.ckpt"),
         "--output", str(cache_path)]
    ) == 0

    train_args = [
        "train", "--method", "drrho-clip", "--data", str(data_path), "--ref", str(cache_path),
        "--steps", "20", "--batch-size", "16", "--embed-dim", "6", "--seed", "7",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(train_args + ["--output", str(out_a)]) == 0
    assert cli.run(train_args + ["--output", str(out_b)]) == 0
    for name in ("report.json", "series.csv", "model.ckpt", "trainer.ckpt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    eval_a, eval_b = tmp_path / "ea", tmp_path / "eb"
    eval_args = ["eval", "--model", str(out_a / "model.ckpt"), "--data", str(data_path)]
    assert cli.run(eval_args + ["--output", str(eval_a)]) == 0
    assert cli.run(eval_args + ["--output", str(eval_b)]) == 0
    assert (eval_a / "report.json").read_bytes() == (eval_b / "report.json").read_bytes()

    # save/load round trips are bit-exact for every artifact kind
    ds = data.load_dataset(data_path)
    ds_path2 = tmp_path / "d2.dpd"
    data.save_dataset(ds, ds_path2)
    assert data.load_dataset(ds_path2).content_hash() == ds.content_hash()

    cache = data.load_cache(cache_path)
    cache_path2 = tmp_path / "c2.emb"
    data.save_cache(cache, cache_path2)
    back = data.load_cache(cache_path2)
    assert back.e1.tobytes() == cache.e1.tobytes() and back.e2.tobytes() == cache.e2.tobytes()

    model = encoder.load_model(out_a / "model.ckpt")
    model_path2 = tmp_path / "m2.ckpt"
    encoder.save_model(model, model_path2)
    assert encoder.load_model(model_path2).id_hash == model.id_hash

    state = trainer.load_checkpoint(out_a / "trainer.ckpt")
    ckpt2 = tmp_path / "t2.ckpt"
    trainer.save_checkpoint(state, ckpt2)
    back_state = trainer.load_checkpoint(ckpt2)
    assert back_state.u1.tobytes() == state.u1.tobytes()
    assert back_state.model.w1.tobytes() == state.model.w1.tobytes()
    _report(
        "criterion 8 (determinism and round trips)",
        "bit-identical reports and artifacts across reruns and reloads",
        t0,
        120,
    )
