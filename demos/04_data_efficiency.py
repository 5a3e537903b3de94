#!/usr/bin/env python3
"""Data efficiency: reference-guided training on half the data keeps pace
with the no-reference baseline on all of it.

Subsets are nested prefixes of the training pool, and every run gets the
same step budget, so the only variable is how much distinct data each
method may touch.
"""

from drrho import data, experiments, trainer

dataset = data.generate_synthetic(
    n=640, d_x=24, d_y=20, d_latent=4, noise_sigma=0.3, test_fraction=0.2, seed=0
)
_, cache = experiments.train_reference(dataset)

config = trainer.TrainConfig(
    steps=150, batch_size=48, embed_dim=8, lr=5e-3, seed=0, eval_subset=32, tau_learnable=True
)
report = experiments.data_efficiency_sweep(
    config,
    dataset,
    cache,
    fractions=[1.0, 0.75, 0.5],
    methods=["drrho-clip", "fastclip"],
    seeds=[0, 1, 2],
)
print(f"{'method':>12} {'fraction':>9} {'recall@1':>9}")
for row in report.config_snapshot["rows"]:
    print(f"{row['method']:>12} {row['fraction']:>9} {row['recall_at_1']:>9.3f}")

rows = {(r["method"], r["fraction"]): r["recall_at_1"] for r in report.config_snapshot["rows"]}
gap = rows[("drrho-clip", 0.5)] - rows[("fastclip", 1.0)]
print(f"\nreference-guided at 50% data vs baseline at 100%: {gap:+.3f} recall")
