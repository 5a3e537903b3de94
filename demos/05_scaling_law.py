#!/usr/bin/env python3
"""Fit error = alpha * compute^beta per method and compare exponents.

Compute is trainable parameters times samples seen. Three model widths
cross three step budgets; each cell runs at two dataset fractions and
keeps its best error, then a log-log least-squares line goes through the
nine points of each method.
"""

from drrho import data, experiments

dataset = data.generate_synthetic(
    n=640, d_x=24, d_y=20, d_latent=4, noise_sigma=0.3, test_fraction=0.2, seed=0
)
_, cache = experiments.train_reference(dataset)
suite = experiments.scaling_suite(dataset, cache)

for method, info in suite.items():
    print(f"\n{method}: error = {info['alpha']:.3g} * C^({info['beta']:.4f}), "
          f"log-space rms residual {info['residual']:.3f}")
    print(f"{'compute':>12} {'error':>8}")
    for p in info["points"]:
        print(f"{p.compute:>12.3g} {p.error:>8.3f}")

beta_gap = suite["drrho-clip"]["beta"] - suite["openclip"]["beta"]
print(f"\nexponent gap (shifted minus baseline): {beta_gap:+.4f}")
print("a more negative exponent means error falls faster per unit compute.")
