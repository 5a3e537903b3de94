"""Whole-run invariances that hold bit for bit in any correct implementation.

- A null reference (similarity exactly 0) is no reference: drrho-clip
  trains as fastclip, since ``s - 0`` is ``s``.
- lambda = 0 is no distillation: the blend is ``1.0 * g + 0.0 * dist``.
- The towers normalize, so scaling the inputs by a power of two (exact in
  binary floating point) changes nothing.

Each compares the weights, u, Adam's moments, tau and the report series
for exact equality.
"""

from dataclasses import replace

import numpy as np
import pytest

from drrho import data, encoder, trainer

CONFIG = trainer.TrainConfig(steps=20, batch_size=16, embed_dim=4, lr=5e-3, eval_every=5, eval_subset=32, seed=1)


@pytest.fixture(scope="module")
def pool():
    return data.generate_synthetic(200, 12, 10, 4, 0.3, 0.2, seed=4)


def null_cache(ds: data.PairedDataset) -> data.EmbeddingCache:
    """A reference whose similarity is exactly 0 for every pair."""
    e1, e2 = np.zeros((ds.n, 4)), np.zeros((ds.n, 4))
    e1[:, 0], e2[:, 1] = 1.0, 1.0
    return data.EmbeddingCache(e1=e1, e2=e2, source_id="null", dataset_id=ds.content_hash(), source_tau=0.05)


def outputs(state: trainer.TrainerState, report) -> dict:
    """Everything a run leaves, as bytes and hex floats."""
    arrays = {name: getattr(state, name).tobytes() for name in ("w", "u", "m", "v")}
    scalars = {name: float(value).hex() for name, value in
               (("tau", state.model.tau), ("m_tau", state.m_tau), ("v_tau", state.v_tau))}
    series = [(step, metric, float(value).hex()) for step, metric, value in report.series]
    return {**arrays, **scalars, "series": series}


def run(config, ds, cache) -> dict:
    return outputs(*trainer.train(config, ds, cache))


def assert_same(got: dict, want: dict) -> None:
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"outputs differ: {differ}"


@pytest.mark.parametrize("tau_learnable", [False, True], ids=["fixed-tau", "learned-tau"])
def test_a_null_reference_makes_drrho_clip_fastclip(pool, tau_learnable):
    config = replace(CONFIG, tau_learnable=tau_learnable, tau=0.05)
    shifted = run(replace(config, method="drrho-clip"), pool, null_cache(pool))
    assert shifted["series"]
    assert_same(shifted, run(replace(config, method="fastclip"), pool, None))


@pytest.mark.parametrize("tau_learnable", [False, True], ids=["fixed-tau", "learned-tau"])
@pytest.mark.parametrize("method", trainer.METHODS)
def test_distillation_at_lambda_zero_is_no_distillation(pool, method, tau_learnable):
    cache = data.build_reference_cache(pool, encoder.init_model(6, 12, 10, seed=9, tau=0.05))
    config = replace(CONFIG, method=method, tau_learnable=tau_learnable)
    assert_same(run(replace(config, distill=True, lam=0.0), pool, cache), run(config, pool, cache))


@pytest.mark.parametrize("tau_learnable", [False, True], ids=["fixed-tau", "learned-tau"])
@pytest.mark.parametrize("method", ["fastclip", "openclip", "jest"])
def test_a_power_of_two_input_scale_changes_nothing(pool, method, tau_learnable):
    scaled = replace(pool, xs=pool.xs * 2.0, ys=pool.ys * 0.5)
    config = replace(CONFIG, method=method, tau_learnable=tau_learnable)
    assert_same(run(config, scaled, null_cache(scaled)), run(config, pool, null_cache(pool)))
