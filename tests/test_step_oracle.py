"""Whole training steps against the loop oracle ``train_step_direct``: the
batch draw, JEST selection, u update, estimator weights, distillation blend,
tau gradient and Adam step of every method, wired together."""

import copy

import numpy as np
import pytest

from drrho import data, encoder, trainer

from oracles import batch_direct, rel_err, train_step_direct


@pytest.fixture(scope="module")
def pool_of_16():
    ds = data.generate_synthetic(20, 6, 5, 3, 0.3, 0.2, seed=3)
    return ds, data.build_reference_cache(ds, encoder.init_model(4, 6, 5, seed=30, tau=0.05))


@pytest.mark.parametrize("tau_learnable", [True, False], ids=["learned-tau", "fixed-tau"])
@pytest.mark.parametrize("distill", [False, True], ids=["plain", "distill"])
@pytest.mark.parametrize("method", trainer.METHODS)
def test_each_step_matches_the_loop_oracle(pool_of_16, method, distill, tau_learnable):
    # A 16-pair pool: batches of 6 make epochs of 2 steps, JEST's super
    # batches of 12 epochs of 1, so three steps draw from two or three orders.
    ds, cache = pool_of_16
    config = trainer.TrainConfig(
        method=method, steps=3, batch_size=6, embed_dim=3, lr=5e-2, tau_learnable=tau_learnable,
        distill=distill, jest_ratio=0.5, eval_every=10**6, eval_subset=8, seed=2,
    )
    run = trainer.start_run(config, ds, cache)
    for t in range(3):
        before = copy.deepcopy(run.state)
        trainer.step(run)
        want = train_step_direct(before, batch_direct(config, ds, t), ds, cache)
        state = run.state
        got = {"w": state.w, "tau": state.model.tau, "u": state.u, "m": state.m, "v": state.v}
        for name, value in got.items():
            assert rel_err(value, want[name]) <= 1e-10, f"step {t + 1}: {name}"
