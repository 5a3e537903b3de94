#!/usr/bin/env python3
"""Train the two-tower model with and without a reference, side by side.

Both methods run the same moving-average estimator machinery; the
reference-shifted run additionally subtracts precomputed reference
similarity gaps inside the exponentials. Watch test retrieval over the
same step budget.
"""

from dataclasses import replace

from drrho import data, experiments, trainer

dataset = data.generate_synthetic(
    n=640, d_x=24, d_y=20, d_latent=4, noise_sigma=0.3, test_fraction=0.2, seed=0
)
print(f"dataset: {dataset.n} pairs, {len(dataset.train_indices)} train / {len(dataset.test_indices)} test")

ref_model, cache = experiments.train_reference(dataset)
print(f"reference recall@1: {experiments.evaluate_recall(ref_model, dataset):.3f}")
print(f"cache: {cache.n} pairs embedded offline by model {cache.source_id}\n")

base = trainer.TrainConfig(
    steps=150, batch_size=48, embed_dim=8, lr=5e-3, seed=0, eval_subset=32, tau_learnable=True
)
curves = {}
for method in ("fastclip", "drrho-clip"):
    config = replace(base, method=method)
    _, report = trainer.train(config, dataset, cache if method == "drrho-clip" else None)
    curves[method] = report.metric_series("recall_at_1")
    print(f"{method}: final recall@1 = {report.summary['recall_at_1']:.3f}")

print(f"\n{'step':>6} {'fastclip':>10} {'drrho-clip':>11}")
for (step, plain), (_, shifted) in zip(curves["fastclip"], curves["drrho-clip"]):
    print(f"{step:>6} {plain:>10.3f} {shifted:>11.3f}")
