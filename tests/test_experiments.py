"""Metrics, sweeps, and scaling-law fitting."""

import concurrent.futures
import functools
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from drrho import data, encoder, experiments, trainer
from drrho.errors import ConfigError
from drrho.experiments import ScalingPoint
from drrho.rng import SEED_LIMIT, CounterRng


def _random_sim(seed, n):
    rng = CounterRng(seed)
    e1 = rng.normals((n, 5))
    e2 = rng.normals((n, 5))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    return e1 @ e2.T


def test_recall_identity_and_antidiagonal():
    s = np.eye(4) * 0.9 - 0.1
    assert experiments.recall_at_1(s) == 1.0
    s = np.array([[0.1, 0.9], [0.9, 0.1]])
    assert experiments.recall_at_1(s) == 0.0


def test_recall_matches_brute_force():
    s = _random_sim(1, 5)
    hits = 0
    for i in range(5):
        if max(range(5), key=lambda j: s[i, j]) == i:
            hits += 1
        if max(range(5), key=lambda j: s[j, i]) == i:
            hits += 1
    assert experiments.recall_at_1(s) == pytest.approx(hits / 10, abs=1e-15)


def test_recall_tie_goes_to_lowest_index():
    s = np.ones((3, 3))
    # every argmax lands on index 0: only anchor 0 counts as correct
    assert experiments.recall_at_1(s) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_recall_permutation_invariance():
    s = _random_sim(2, 6)
    perm = CounterRng(3).permutation(6)
    assert experiments.recall_at_1(s[np.ix_(perm, perm)]) == pytest.approx(
        experiments.recall_at_1(s), abs=1e-15
    )


def test_recall_empty_matrix_raises():
    with pytest.raises(ValueError):
        experiments.recall_at_1(np.zeros((0, 0)))


def test_loss_variance_zero_cases():
    s = _random_sim(4, 6)
    shifted = experiments.loss_variance(s - s)
    assert (shifted.image_variances == 0).all()
    assert (shifted.text_variances == 0).all()
    const = np.full((5, 5), 0.3)
    plain = experiments.loss_variance(const)
    assert plain.image_mean == 0.0 and plain.text_mean == 0.0
    with pytest.raises(ValueError):
        experiments.loss_variance(_random_sim(5, 2))


def test_loss_variance_matches_manual():
    s = _random_sim(6, 5)
    out = experiments.loss_variance(s)
    i = 2
    gaps = [s[i, j] - s[i, i] for j in range(5) if j != i]
    assert out.image_variances[i] == pytest.approx(np.var(gaps), abs=1e-12)


def test_fit_scaling_law_exact_recovery():
    computes = np.array([1e4, 1e5, 1e6, 1e7])
    errors = 2.0 * computes**-0.1
    points = [ScalingPoint(c, e) for c, e in zip(computes, errors)]
    alpha, beta, residual = experiments.fit_scaling_law(points)
    assert alpha == pytest.approx(2.0, abs=1e-9)
    assert beta == pytest.approx(-0.1, abs=1e-9)
    assert residual == pytest.approx(0.0, abs=1e-9)


def test_fit_scaling_law_two_points_interpolate():
    points = [ScalingPoint(10.0, 0.5), ScalingPoint(1000.0, 0.2)]
    _, _, residual = experiments.fit_scaling_law(points)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_law_unit_invariance_of_beta():
    rng = CounterRng(7)
    computes = np.array([50.0, 500.0, 5000.0])
    errors = np.exp(np.log(0.6) - 0.15 * np.log(computes) + 0.01 * rng.normals(3))
    pts = [ScalingPoint(c, e) for c, e in zip(computes, errors)]
    scaled = [ScalingPoint(10 * c, e) for c, e in zip(computes, errors)]
    a1, b1, _ = experiments.fit_scaling_law(pts)
    a2, b2, _ = experiments.fit_scaling_law(scaled)
    assert b2 == pytest.approx(b1, abs=1e-12)
    assert a2 == pytest.approx(a1 * 10 ** (-b1), rel=1e-9)


def test_fit_scaling_law_argument_errors():
    with pytest.raises(ValueError):
        experiments.fit_scaling_law([ScalingPoint(1.0, 0.5)])
    with pytest.raises(ValueError):
        experiments.fit_scaling_law([ScalingPoint(1.0, 0.5), ScalingPoint(1.0, 0.4)])
    with pytest.raises(ValueError):
        ScalingPoint(-1.0, 0.5)
    with pytest.raises(ValueError):
        ScalingPoint(1.0, 1.5)
    with pytest.raises(ValueError, match="compute"):
        ScalingPoint(float("inf"), 0.5)
    with pytest.raises(ValueError, match="error"):
        ScalingPoint(1.0, float("nan"))


def test_best_error_per_compute():
    pts = experiments.best_error_per_compute({100.0: [0.4, 0.35, 0.5]})
    assert pts[0].error == 0.35
    pts = experiments.best_error_per_compute({100.0: [0.4], 10.0: [0.6]})
    assert [p.compute for p in pts] == [10.0, 100.0]
    lower = experiments.best_error_per_compute({100.0: [0.4, 0.3]})[0].error
    assert lower <= 0.4
    with pytest.raises(ValueError):
        experiments.best_error_per_compute({100.0: []})


def test_clip_error_and_compute_units():
    assert experiments.clip_error(0.0) == experiments.ERROR_CLIP
    assert experiments.clip_error(1.0) == 1.0 - experiments.ERROR_CLIP
    assert experiments.compute_units(100, 2000) == 200000.0


def test_sweep_single_fraction_reduces_to_train(tmp_path):
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=20, batch_size=16, embed_dim=6, lr=5e-3, seed=3)
    report = experiments.data_efficiency_sweep(config, ds, None, fractions=[1.0])
    _, direct = trainer.train(config, ds, None)
    row = report.config_snapshot["rows"][0]
    assert row["recall_at_1"] == pytest.approx(direct.summary["recall_at_1"], abs=1e-15)


def test_sweep_rows_and_nesting():
    ds = data.generate_synthetic(128, 12, 10, 4, 0.25, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=5, batch_size=8, embed_dim=4, lr=5e-3, seed=3)
    report = experiments.data_efficiency_sweep(
        config, ds, None, fractions=[1.0, 0.75, 0.5], methods=["fastclip", "openclip"]
    )
    assert len(report.config_snapshot["rows"]) == 6
    # nested-subset policy: smaller fractions are prefixes
    from drrho.trainer import _train_pool

    a = _train_pool(ds, 0.5)
    b = _train_pool(ds, 0.75)
    assert set(a.tolist()) <= set(b.tolist())


def test_sweep_seed_values_match_direct_runs_and_rows_hold_their_mean():
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=30, batch_size=16, embed_dim=6, lr=5e-3, seed=3)
    methods, fractions, seeds = ["fastclip", "openclip"], [1.0, 0.5], [1, 0]
    report = experiments.data_efficiency_sweep(config, ds, None, fractions=fractions, methods=methods, seeds=seeds)
    rows = report.config_snapshot["rows"]
    assert [(r["method"], r["fraction"]) for r in rows] == [(m, f) for m in methods for f in fractions]
    for index, row in enumerate(rows):
        key = f"recall_at_1/{row['method']}/frac={row['fraction']}"
        recalls = []
        for seed in seeds:
            run_config = replace(config, method=row["method"], train_fraction=row["fraction"], seed=seed)
            _, direct = trainer.train(run_config, ds)
            recalls.append(direct.summary["recall_at_1"])
            assert (index, f"{key}/seed={seed}", recalls[-1]) in report.series
        assert row["recall_at_1"] == float(np.mean(recalls))
        assert (index, key, row["recall_at_1"]) in report.series


def test_sweep_recall_is_the_recall_of_a_default_cadence_run():
    # The sweep's runs record only their final eval point; a run at the
    # default cadence (every step here) must end on the same model.
    ds = data.generate_synthetic(160, 12, 10, 4, 0.25, 0.25, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=7))
    config = trainer.TrainConfig(steps=30, batch_size=8, embed_dim=6, lr=5e-3, tau_learnable=True, eval_subset=16)
    methods, seeds = ["drrho-clip", "fastclip", "jest"], [4, 5]
    report = experiments.data_efficiency_sweep(config, ds, cache, fractions=[1.0], methods=methods, seeds=seeds)
    assert config.resolved_eval_every() == 1
    for row, method in enumerate(methods):
        for seed in seeds:
            run = replace(config, method=method, seed=seed)
            state, _ = trainer.train(run, ds, cache)
            key = f"recall_at_1/{method}/frac=1.0/seed={seed}"
            assert (row, key, experiments.evaluate_recall(state.model, ds)) in report.series


def test_sweep_rows_record_what_their_own_method_resolves():
    # The base config is drrho-clip's; each row's runs resolve tau and steps for their own method.
    ds = data.generate_synthetic(160, 12, 10, 4, 0.25, 0.25, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=7))
    config = trainer.TrainConfig(steps=4, batch_size=8, embed_dim=6, eval_subset=16)
    methods = ["drrho-clip", "fastclip", "jest"]
    report = experiments.data_efficiency_sweep(config, ds, cache, fractions=[1.0], methods=methods)
    rows = report.to_json_dict()["config"]["rows"]
    got = [(r["method"], r["tau"], r["tau_learnable"], r["effective_steps"]) for r in rows]
    assert got == [("drrho-clip", 0.01, False, 4), ("fastclip", 0.07, True, 4), ("jest", 0.07, True, 7)]
    per_method = {"method", "tau", "tau_learnable", "effective_steps", "warmup_steps", "eval_every"}
    assert not per_method & set(report.config_snapshot)


def test_sweep_rejects_too_small_fraction():
    ds = data.generate_synthetic(64, 12, 10, 4, 0.25, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=5, batch_size=16, embed_dim=4)
    with pytest.raises(ConfigError):
        experiments.data_efficiency_sweep(config, ds, None, fractions=[0.1])


def test_sweep_untrained_rows_hold_the_model_recall():
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=0, batch_size=16, embed_dim=6, seed=3)
    report = experiments.data_efficiency_sweep(config, ds, None, fractions=[1.0])
    untrained = encoder.init_model(6, 12, 10, seed=3, tau=config.start_tau)
    assert report.config_snapshot["rows"][0]["recall_at_1"] == experiments.evaluate_recall(untrained, ds)


def test_sweep_rejects_dataset_without_test_pairs():
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.0, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=5, batch_size=16, embed_dim=4)
    with pytest.raises(ConfigError, match="test split"):
        experiments.data_efficiency_sweep(config, ds, None, fractions=[1.0])


def test_scaling_suite_rejects_dataset_without_test_pairs_before_training(monkeypatch):
    ds = data.generate_synthetic(80, 12, 10, 4, 0.25, 0.0, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=7))

    def no_training(*args, **kwargs):
        raise AssertionError("train() ran before the test split was checked")

    monkeypatch.setattr(experiments, "train", no_training)
    monkeypatch.setenv("DRRHO_THREADS", "1")
    with pytest.raises(ConfigError, match="dataset"):
        experiments.scaling_suite(ds, cache)


def _record_start_run(monkeypatch) -> list:
    calls = []
    start_run = trainer.start_run

    def recorded(*args, **kwargs):
        calls.append(args[0].method)
        return start_run(*args, **kwargs)

    monkeypatch.setattr(trainer, "start_run", recorded)
    monkeypatch.setenv("DRRHO_THREADS", "1")
    return calls


def test_sweep_rejects_a_job_start_run_would_before_any_trains(monkeypatch):
    # JEST's super batch of 16 / 0.2 = 80 pairs overfills the 52-pair pool
    # of fraction 0.3; the other jobs pass every check the sweep makes itself.
    ds = data.generate_synthetic(200, 12, 10, 4, 0.25, 0.125, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=7))
    config = trainer.TrainConfig(steps=5, batch_size=16, embed_dim=6)
    calls = _record_start_run(monkeypatch)
    with pytest.raises(ConfigError, match="jest_ratio"):
        experiments.data_efficiency_sweep(
            config, ds, cache, fractions=[1.0, 0.3], methods=["drrho-clip", "fastclip", "jest"]
        )
    assert calls == []


def test_scaling_suite_rejects_a_cache_of_another_dataset_before_any_trains(monkeypatch):
    ds = data.generate_synthetic(160, 12, 10, 4, 0.25, 0.25, seed=2)
    other = data.generate_synthetic(160, 12, 10, 4, 0.25, 0.25, seed=3)
    cache = data.build_reference_cache(other, encoder.init_model(6, 12, 10, seed=7))
    calls = _record_start_run(monkeypatch)
    with pytest.raises(ConfigError, match="cache"):
        experiments.scaling_suite(ds, cache)
    assert calls == []


def test_sweep_hashes_each_dataset_once(monkeypatch, sha256_calls):
    monkeypatch.setenv("DRRHO_THREADS", "1")
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=7))
    config = trainer.TrainConfig(steps=4, batch_size=16, embed_dim=4, lr=5e-3)
    experiments.data_efficiency_sweep(config, ds, cache, fractions=[1.0, 0.5], methods=["drrho-clip", "fastclip"])
    assert len(sha256_calls) == 1


def test_sweep_parallel_matches_sequential(monkeypatch):
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=2)
    config = trainer.TrainConfig(method="fastclip", steps=10, batch_size=16, embed_dim=4, lr=5e-3, seed=3)
    monkeypatch.setenv("DRRHO_THREADS", "1")
    seq = experiments.data_efficiency_sweep(config, ds, None, fractions=[1.0, 0.5])
    monkeypatch.setenv("DRRHO_THREADS", "2")
    monkeypatch.setattr(experiments, "POOL_MIN_SAMPLES_PER_WORKER", 0)  # these 2 short jobs pool all the same
    par = experiments.data_efficiency_sweep(config, ds, None, fractions=[1.0, 0.5])
    assert seq.to_json_dict() == par.to_json_dict()


def test_variance_trial_rows_do_not_depend_on_pooling(monkeypatch):
    monkeypatch.setenv("DRRHO_THREADS", "1")
    apart = experiments.variance_reduction_trial([0]) + experiments.variance_reduction_trial([1])
    together = experiments.variance_reduction_trial([0, 1])
    monkeypatch.setenv("DRRHO_THREADS", "2")
    monkeypatch.setattr(experiments, "POOL_MIN_SAMPLES_PER_WORKER", 0)
    assert experiments.variance_reduction_trial([0, 1]) == together == apart


def test_variance_trial_checks_every_run_before_any_trains(monkeypatch):
    # The reference's seed is SEED_LIMIT - 1, the target's SEED_LIMIT.
    calls = _record_start_run(monkeypatch)
    with pytest.raises(ConfigError, match=f"seed: invalid value {SEED_LIMIT}"):
        experiments.variance_reduction_trial([SEED_LIMIT - 2])
    assert calls == []


def test_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("DRRHO_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert experiments.worker_count() == 1
    monkeypatch.setenv("DRRHO_THREADS", "3")
    assert experiments.worker_count() == 3


def _record_pid_and_fail(path, job):
    with open(path, "a") as f:
        f.write(f"{os.getpid()}\n")
    raise ValueError(f"job {job} failed")


def test_job_error_propagates_without_sequential_rerun(tmp_path):
    path = tmp_path / "pids.txt"
    with pytest.raises(ValueError, match="failed"):
        experiments._run_jobs([0, 1], functools.partial(_record_pid_and_fail, path), workers=2)
    pids = [int(line) for line in path.read_text().split()]
    assert pids and os.getpid() not in pids


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was constructed")


def test_sweep_too_small_for_the_pool_trains_in_process(monkeypatch):
    # The cli-pipeline benchmark's sweep: 4 jobs of 50 steps at b=32, 3,200 samples per worker.
    ds = data.generate_synthetic(320, 12, 10, 4, 0.25, 0.25, seed=2)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=7))
    config = trainer.TrainConfig(steps=50, batch_size=32, embed_dim=4, lr=5e-3)
    monkeypatch.setenv("DRRHO_THREADS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    report = experiments.data_efficiency_sweep(
        config, ds, cache, fractions=[1.0, 0.5], methods=["drrho-clip", "fastclip"]
    )
    assert len(report.config_snapshot["rows"]) == 4


def _pid_of_job(job):
    return os.getpid()


def test_pool_starts_at_the_samples_per_worker_constant(monkeypatch):
    ds = data.generate_synthetic(96, 12, 10, 4, 0.25, 0.25, seed=2)
    # 4 jobs at b=32 on 2 workers: each step of each job is 64 samples per worker.
    steps = -(-experiments.POOL_MIN_SAMPLES_PER_WORKER // 64)
    monkeypatch.setenv("DRRHO_THREADS", "2")
    monkeypatch.setattr(experiments, "_final_model", _pid_of_job)
    config = trainer.TrainConfig(method="fastclip", steps=steps - 1, batch_size=32)
    below = [(replace(config, seed=seed), ds, None) for seed in range(4)]
    assert experiments._final_models(below) == [os.getpid()] * 4
    at = [(replace(config, steps=steps), ds, None) for config, _, _ in below]
    pids = experiments._final_models(at)
    assert len(pids) == 4 and os.getpid() not in pids


def _doubled_with_pid(job):
    return 2 * job, os.getpid()


def test_run_jobs_falls_back_to_this_process_when_the_pool_cannot_start(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    got = experiments._run_jobs([0, 1, 2], _doubled_with_pid, workers=2)
    assert got == [(0, os.getpid()), (2, os.getpid()), (4, os.getpid())]
