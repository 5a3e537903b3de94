"""Step buffers: every ``out=`` path gives the allocating path's values and
layout, the estimators agree when they share one buffer set in trainer
order, and a training step stops faulting in fresh memory."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from drrho import baselines, contrastive, data, encoder, trainer

SIZES = [2, 3, 48, 257]


def _same(got, want):
    """Bit-identical values and the same memory layout."""
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes(order="A") == want.tobytes(order="A")


def _batch(b, seed=0, tau=0.05):
    ds = data.generate_synthetic(b + 2, 6, 5, 3, 0.2, 0.0, seed=seed)
    cache = data.build_reference_cache(ds, encoder.init_model(4, 6, 5, seed=seed + 50))
    model = encoder.init_model(4, 6, 5, seed=seed + 1, tau=tau)
    batch = np.arange(1, b + 1)
    return ds, cache, model, batch


def _gap_buffers(b):
    """(gaps1, q1, gaps2, q2) as ``train()`` holds them, filled with NaN so
    that any entry a kernel leaves unwritten shows."""
    gaps = trainer._step_buffers(b)[0]
    for g in gaps:
        g[...] = np.nan
    return gaps


def test_step_buffers_lay_out_gaps_as_the_allocating_path():
    s = np.arange(9.0).reshape(3, 3)
    for held, alloc in zip(trainer._step_buffers(3)[0], trainer.shifted_gap_exponentials(s, 0.1)):
        assert held.shape == alloc.shape and held.strides == alloc.strides


@pytest.mark.parametrize("with_ref", [False, True], ids=["plain", "shifted"])
@pytest.mark.parametrize("b", SIZES)
def test_similarity_out_matches_allocating(b, with_ref):
    ds, cache, model, batch = _batch(b)
    xs, ys = ds.xs[batch], ds.ys[batch]
    out = np.full((b, b), np.nan)
    fwd = encoder.batch_forward(model, xs, ys, out=out)
    assert fwd.s is out
    _same(fwd.s, encoder.batch_forward(model, xs, ys).s)
    if with_ref:
        out = np.full((b, b), np.nan)
        assert cache.similarity(batch, out=out) is out
        _same(out, cache.similarity(batch))


@pytest.mark.parametrize("with_ref", [False, True], ids=["plain", "shifted"])
@pytest.mark.parametrize("b", SIZES)
def test_gap_kernels_out_match_allocating(b, with_ref):
    ds, cache, model, batch = _batch(b)
    s = encoder.batch_forward(model, ds.xs[batch], ds.ys[batch]).s
    if with_ref:
        s -= cache.similarity(batch)

    g1, _, g2, _ = _gap_buffers(b)
    got = contrastive.shifted_gaps(s, out=(g1, g2))
    assert got[0] is g1 and got[1] is g2
    for x, y in zip(got, contrastive.shifted_gaps(s)):
        _same(x, y)

    out = _gap_buffers(b)
    got = trainer.shifted_gap_exponentials(s, model.tau, out=out)
    assert all(x is y for x, y in zip(got, out))
    for x, y in zip(got, trainer.shifted_gap_exponentials(s, model.tau)):
        _same(x, y)


@pytest.mark.parametrize("b", SIZES)
def test_infonce_out_matches_allocating(b):
    ds, _, model, batch = _batch(b)
    s = encoder.batch_forward(model, ds.xs[batch], ds.ys[batch]).s
    out = np.full((3, b, b), np.nan)
    coef = baselines.infonce_grad_s(s, model.tau, out=out)
    assert np.shares_memory(coef, out[1])
    _same(coef, baselines.infonce_grad_s(s, model.tau))
    out[:] = np.nan
    assert baselines.infonce_tau_gradient(s, model.tau, out=out) == baselines.infonce_tau_gradient(s, model.tau)


@pytest.mark.parametrize("method", ["drrho-clip", "fastclip"])
@pytest.mark.parametrize("b", SIZES)
def test_estimators_share_one_buffer_set_in_trainer_order(b, method):
    """update_u, gradient_estimator, tau_gradient on one buffer set equal the
    allocating calls; the coefficients live in q1's memory, and the next
    ``shifted_gap_exponentials`` call may overwrite them only after use."""
    ds, cache, model, batch = _batch(b, tau=0.02)
    config = trainer.TrainConfig(method=method, batch_size=b, embed_dim=4, tau_learnable=True, gamma=0.8)
    xs, ys = ds.xs[batch], ds.ys[batch]
    fwd = encoder.batch_forward(model, xs, ys)
    s = fwd.s - cache.similarity(batch) if method == "drrho-clip" else fwd.s
    alloc = trainer.init_trainer_state(model.copy(), ds.n, config)
    held = trainer.init_trainer_state(model.copy(), ds.n, config)
    out = _gap_buffers(b)
    for _ in range(2):  # the second round starts from warm u
        u_a = trainer.update_u(alloc, batch, s)
        u_h = trainer.update_u(held, batch, s, out=out)
        for x, y in zip(u_h, u_a):
            _same(x, y)
        coef = trainer.anchor_weight_coefficients(held, u_h, s, out=out)
        assert coef is out[1]
        _same(coef, trainer.anchor_weight_coefficients(alloc, u_a, s))
        g_a = trainer.gradient_estimator(alloc, u_a, fwd, xs, ys, s)
        g_h = trainer.gradient_estimator(held, u_h, fwd, xs, ys, s, out=out)
        for name in g_a:
            _same(g_h[name], g_a[name])
        tau_h = trainer.tau_gradient(held, u_h, s, out=out)
        assert tau_h == trainer.tau_gradient(alloc, u_a, s)
    _same(held.u1, alloc.u1)
    _same(held.u2, alloc.u2)


def _run_digest(state, rep):
    arrays = [state.model.w1, state.model.w2, state.u1, state.u2, *state.moments.values()]
    return [a.tobytes() for a in arrays], state.model.tau, repr(rep.summary)


@pytest.mark.parametrize(
    "method, b, ratio",
    [
        ("drrho-clip", 12, 0.5),
        ("fastclip", 12, 0.5),
        ("openclip", 12, 0.5),
        # Selections of ceil(ratio * round(b / ratio)) pairs: 33 from 107, 11 from 29.
        ("jest", 32, 0.3),
        ("jest-topk", 32, 0.3),
        ("jest", 10, 0.35),
        ("jest-topk", 10, 0.35),
    ],
)
def test_train_with_step_buffers_matches_allocating_path(monkeypatch, method, b, ratio):
    ds = data.generate_synthetic(160, 12, 10, 4, 0.2, 0.2, seed=4)
    cache = data.build_reference_cache(ds, encoder.init_model(6, 12, 10, seed=40))
    config = trainer.TrainConfig(
        method=method, steps=6, batch_size=b, embed_dim=6, lr=5e-3, tau_learnable=True,
        jest_ratio=ratio, distill=True, eval_subset=32, eval_every=2,
    )
    held = _run_digest(*trainer.train(config, ds, cache))
    monkeypatch.setattr(trainer, "_step_buffers", lambda b: (None,) * 4)
    assert held == _run_digest(*trainer.train(config, ds, cache))


# Minor page faults per extra training step, read by a fresh process from
# its own rusage. Each (b, b) array of a step at b=1024 is 8 MB, which the
# allocator maps fresh and returns on free, so one that is not held for the
# run costs about 2,048 faults per step.
_CHURN = textwrap.dedent(
    """
    import resource, sys
    from drrho import data, encoder, trainer

    method, b, short, long = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    jest = method == "jest"
    # JEST runs at the monitored small-batch shape, with its eval cadence.
    n, test_fraction = (640, 0.2) if jest else (b + 76, 0.0)
    ds = data.generate_synthetic(n, 24, 20, 4, 0.3, test_fraction, seed=0)
    cache = data.build_reference_cache(ds, encoder.init_model(16, 24, 20, seed=1))

    def faults(steps):
        config = trainer.TrainConfig(
            method=method, steps=steps, batch_size=b, embed_dim=8, lr=5e-3, tau_learnable=True,
            eval_subset=128, eval_every=None if jest else 10**6,
        )
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train(config, ds, cache)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, config.effective_steps

    if not jest:
        faults(short)
    (f_short, s_short), (f_long, s_long) = faults(short), faults(long)
    print((f_long - f_short) / (s_long - s_short))
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are read on Linux")
@pytest.mark.parametrize(
    "method, b, short, long, bound",
    [
        ("drrho-clip", 1024, 2, 8, 256),
        ("fastclip", 1024, 2, 8, 256),
        ("openclip", 1024, 2, 8, 256),
        ("jest", 48, 20, 80, 10),
    ],
)
def test_training_step_does_not_fault_in_fresh_memory(method, b, short, long, bound):
    pytest.importorskip("resource")
    src = Path(trainer.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CHURN, method, str(b), str(short), str(long)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    per_step = float(proc.stdout)
    assert per_step < bound, f"{method} at b={b}: {per_step:.0f} minor faults per extra step"
