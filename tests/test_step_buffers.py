"""Step buffers: every ``out=`` path gives the allocating path's values and
layout, the estimators agree when they share one buffer set in trainer
order, and a training step stops faulting in fresh memory and holds no
gap matrices."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
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


def _q_buffer(b):
    """The (2, b, b) exponentials buffer as ``train()`` holds it, filled
    with NaN so that any entry a kernel leaves unwritten shows."""
    q = trainer._step_buffers(b)[3]
    q[...] = np.nan
    return q


def test_step_buffers_lay_out_gaps_as_the_allocating_path():
    s = np.arange(9.0).reshape(3, 3)
    held = trainer.shifted_gap_exponentials(s, 0.1, out=trainer._step_buffers(3)[3])
    for h, alloc in zip(held, trainer.shifted_gap_exponentials(s, 0.1)):
        assert h.shape == alloc.shape and h.strides == alloc.strides


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

    q = _q_buffer(b)
    g1, g2 = q[0], q[1].T
    got = contrastive.shifted_gaps(s, out=(g1, g2))
    assert got[0] is g1 and got[1] is g2
    for x, y in zip(got, contrastive.shifted_gaps(s)):
        _same(x, y)

    out = _q_buffer(b)
    got = trainer.shifted_gap_exponentials(s, model.tau, out=out)
    assert _at(got[0], out[0]) and _at(got[1], out[1])
    for x, y in zip(got, trainer.shifted_gap_exponentials(s, model.tau)):
        _same(x, y)


@pytest.mark.parametrize("b", SIZES)
def test_infonce_out_matches_allocating(b):
    ds, _, model, batch = _batch(b)
    s = encoder.batch_forward(model, ds.xs[batch], ds.ys[batch]).s
    out = np.full((2, b, b), np.nan)
    coef = baselines.infonce_grad_s(s, model.tau, out=out)
    assert _view_of(coef, out, 0)
    _same(coef, baselines.infonce_grad_s(s, model.tau))
    out[:] = np.nan
    assert baselines.infonce_tau_gradient(s, model.tau, out=out) == baselines.infonce_tau_gradient(s, model.tau)


@pytest.mark.parametrize("b", SIZES)
def test_distillation_out_matches_allocating(b):
    ds, cache, model, batch = _batch(b)
    s = encoder.batch_forward(model, ds.xs[batch], ds.ys[batch]).s
    s_ref = cache.similarity(batch)
    out = np.full((2, b, b), np.nan)
    coef = baselines.distillation_grad_s(s, s_ref, model.tau, 0.03, out=out)
    assert _view_of(coef, out, 0)
    _same(coef, baselines.distillation_grad_s(s, s_ref, model.tau, 0.03))


@pytest.mark.parametrize("method", ["drrho-clip", "fastclip"])
@pytest.mark.parametrize("b", SIZES)
def test_estimators_share_one_buffer_set_in_trainer_order(b, method):
    """update_u, gradient_estimator, tau_gradient on one buffer set equal the
    allocating calls. As in a step, a drrho-clip step subtracts the reference
    similarity, held where q1 goes, into the similarity's memory; the
    coefficients live in q1's memory, and the next
    ``shifted_gap_exponentials`` call may overwrite them only after use."""
    ds, cache, model, batch = _batch(b, tau=0.02)
    config = trainer.TrainConfig(method=method, batch_size=b, embed_dim=4, tau_learnable=True, gamma=0.8)
    xs, ys = ds.xs[batch], ds.ys[batch]
    fwd = encoder.batch_forward(model, xs, ys)
    s = fwd.s - cache.similarity(batch) if method == "drrho-clip" else fwd.s
    alloc = trainer.init_trainer_state(model.copy(), ds.n, config)
    held = trainer.init_trainer_state(model.copy(), ds.n, config)
    sim, ref, _, out = trainer._step_buffers(b)
    sim[...], out[...] = np.nan, np.nan
    fwd_h = encoder.batch_forward(model, xs, ys, out=sim)
    s_h = np.subtract(fwd_h.s, cache.similarity(batch, out=ref), out=sim) if method == "drrho-clip" else sim
    _same(s_h, s)
    for _ in range(2):  # the second round starts from warm u
        u_a = trainer.update_u(alloc, batch, s)
        u_h = trainer.update_u(held, batch, s_h, out=out)
        for x, y in zip(u_h, u_a):
            _same(x, y)
        coef = trainer.anchor_weight_coefficients(held, u_h, s_h, out=out)
        assert _at(coef, out[0]) and coef.strides == out[0].strides
        _same(coef, trainer.anchor_weight_coefficients(alloc, u_a, s))
        g_a = trainer.gradient_estimator(alloc, u_a, fwd, xs, ys, s)
        g_h = trainer.gradient_estimator(held, u_h, fwd_h, xs, ys, s_h, out=out)
        for name in g_a:
            _same(g_h[name], g_a[name])
        tau_h = trainer.tau_gradient(held, u_h, s_h, out=out)
        assert tau_h == trainer.tau_gradient(alloc, u_a, s)
    _same(held.u, alloc.u)


def _run_digest(state, rep):
    arrays = [state.model.w1, state.model.w2, state.u, state.m, state.v]
    return [a.tobytes() for a in arrays], (state.m_tau, state.v_tau), state.model.tau, repr(rep.summary)


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


@pytest.mark.parametrize("method", ["jest", "jest-topk"])
def test_jest_step_allocates_no_super_by_super_array(monkeypatch, method):
    """A JEST step at the large-batch shape (256 of a 1280-pair super batch)
    allocates less, at its peak, than one 1280 x 1280 matrix: selection
    forms only the blocks it compares."""
    ds = data.generate_synthetic(1600, 24, 20, 4, 0.3, 0.2, seed=0)
    cache = data.build_reference_cache(ds, encoder.init_model(16, 24, 20, seed=1))
    config = trainer.TrainConfig(
        method=method, steps=2, batch_size=256, embed_dim=8, lr=5e-3, tau_learnable=True, eval_every=10**6
    )
    peaks, step = [], trainer.optimizer_step

    def traced_step(state, grads):
        # The second step runs from the end of the first to the end of its own update.
        out = step(state, grads)
        if state.step == 2:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        elif state.step == 1:
            tracemalloc.start()
        return out

    monkeypatch.setattr(trainer, "optimizer_step", traced_step)
    try:
        trainer.train(config, ds, cache)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] < 1280 * 1280 * 8, f"peak {peaks} B"


def _probe(script, *argv):
    """The number a fresh interpreter prints running ``script`` with
    ``argv`` on this checkout's sources, which reads its own memory counters."""
    pytest.importorskip("resource")
    src = Path(trainer.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


# Minor page faults per extra training step, read by a fresh process from
# its own rusage. Each (b, b) array of a step at b=1024 is 8 MB, which the
# allocator maps fresh and returns on free, so one that is not held for the
# run costs about 2,048 faults per step.
_CHURN = textwrap.dedent(
    """
    import resource, sys
    from drrho import data, encoder, trainer

    method, _, distill = sys.argv[1].partition("+")  # "openclip+distill" adds distillation
    b, short, long = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    jest = method == "jest"
    # JEST runs at the monitored small-batch shape, with its eval cadence.
    n, test_fraction = (640, 0.2) if jest else (b + 76, 0.0)
    ds = data.generate_synthetic(n, 24, 20, 4, 0.3, test_fraction, seed=0)
    cache = data.build_reference_cache(ds, encoder.init_model(16, 24, 20, seed=1))

    def faults(steps):
        config = trainer.TrainConfig(
            method=method, steps=steps, batch_size=b, embed_dim=8, lr=5e-3, tau_learnable=True, distill=bool(distill),
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
        ("drrho-clip+distill", 1024, 2, 8, 256),
        ("openclip+distill", 1024, 2, 8, 256),
        ("jest", 48, 20, 80, 10),
    ],
)
def test_training_step_does_not_fault_in_fresh_memory(method, b, short, long, bound):
    per_step = _probe(_CHURN, method, b, short, long)
    assert per_step < bound, f"{method} at b={b}: {per_step:.0f} minor faults per extra step"


# Peak resident growth of a 2-step run at b=1024, read by a fresh process
# from its own VmHWM. Each (b, b) array a step writes is 8 MB. ru_maxrss
# would not do: at exec it takes over the parent's resident set, so under a
# test runner larger than the run it reads no growth at all.
_PEAK = textwrap.dedent(
    """
    import sys
    from drrho import data, encoder, trainer

    def peak_kib():
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

    method, _, distill = sys.argv[1].partition("+")  # "openclip+distill" adds distillation
    b = int(sys.argv[2])
    ds = data.generate_synthetic(b + 76, 24, 20, 4, 0.3, 0.0, seed=0)
    cache = data.build_reference_cache(ds, encoder.init_model(16, 24, 20, seed=1))
    config = trainer.TrainConfig(
        method=method, steps=2, batch_size=b, embed_dim=8, lr=5e-3, tau_learnable=True, distill=bool(distill),
        eval_subset=128, eval_every=10**6,
    )
    before = peak_kib()
    trainer.train(config, ds, cache)
    print((peak_kib() - before) / 1024)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from /proc on Linux")
@pytest.mark.parametrize(
    "method, bound_mb",
    [
        ("drrho-clip", 32),
        ("fastclip", 32),
        ("openclip", 32),
        ("drrho-clip+distill", 40),
        ("openclip+distill", 40),
    ],
)
def test_estimator_step_holds_no_gap_matrices(method, bound_mb):
    """A step writes its exponentials or softmaxes, not the gaps too, and
    touches 3 b x b arrays: the similarity and two of the scratch, which
    take the reference similarity before q. Distillation adds the third
    scratch matrix."""
    growth = _probe(_PEAK, method, 1024)
    assert growth < bound_mb, f"{method} at b=1024: peak RSS grew {growth:.1f} MB"


def _address(a):
    return a.__array_interface__["data"][0]


def _at(a, b):
    """``a`` starts where ``b`` does."""
    return _address(a) == _address(b)


def _view_of(a, parent, index):
    """``a`` is the memory of parent[index], in a layout of its own."""
    return a.base is parent and a.size == parent[index].size and _address(a) == _address(parent[index])


def test_step_buffers_stack_both_directions():
    b = 5
    sim, ref, distill, q = trainer._step_buffers(b)
    parent = ref.base
    assert parent.shape == (3, b, b) and parent.flags.c_contiguous
    assert sim.shape == (b, b) and not np.shares_memory(sim, parent)
    assert _view_of(ref, parent, 0)
    assert q.base is parent and q.shape == (2, b, b) and _at(q, parent[0])
    # Distillation's gradient sits in the one matrix q never writes.
    grad, softmax = distill
    assert _view_of(grad, parent, 2) and _view_of(softmax, parent, 1)
    q1, q2 = trainer.shifted_gap_exponentials(np.zeros((b, b)), 0.1, out=q)
    assert _view_of(q1, parent, 0) and _view_of(q2, parent, 1)
    assert q1.strides == parent[0].strides and q2.strides == parent[1].T.strides


def _assert_stacked(state, n):
    """w1 and w2 are the head and tail of ``state.w``, m and v are laid out
    like it, and u holds both directions' estimators in one (2, n) array."""
    model, w = state.model, state.w
    assert w.shape == (model.w1.size + model.w2.size,) and w.flags.c_contiguous
    assert model.w1.base is w and model.w2.base is w
    assert _at(model.w1, w) and _address(model.w2) == _address(w) + model.w1.nbytes
    assert state.m.shape == state.v.shape == w.shape and state.u.shape == (2, n)


def test_trainer_state_keeps_its_stacked_layout_through_steps():
    ds = data.generate_synthetic(40, 6, 5, 3, 0.2, 0.2, seed=1)
    config = trainer.TrainConfig(method="fastclip", steps=3, batch_size=8, embed_dim=4, eval_every=10**6)
    state = trainer.init_trainer_state(encoder.init_model(4, 6, 5, seed=2), ds.n, config)
    _assert_stacked(state, ds.n)
    run = trainer.start_run(config, ds)
    held = [run.state.w, run.state.m, run.state.v, run.state.u]
    for _ in range(config.steps):
        trainer.step(run)
    _assert_stacked(run.state, ds.n)
    # updated in place, not laid out anew
    assert all(now is then for now, then in zip([run.state.w, run.state.m, run.state.v, run.state.u], held))
    assert run.state.u.any() and run.state.m.any()
