#!/usr/bin/env python3
"""Tour of the robust risk functionals on a small loss vector.

Each functional upweights hard samples relative to the plain mean; the
reference shift recenters losses by what a trained model already achieves,
so "hard" becomes "hard for you but easy for the reference".
"""

import numpy as np

from drrho import risk

losses = np.array([0.05, 0.30, 0.80, 0.20, 0.95, 0.40])
print("losses            :", losses)
print("mean              :", losses.mean())

# average of the top-k: the data-selection view
for k in (1, 2, 4):
    print(f"top-{k} average     : {risk.cvar_topk(losses, k):.4f}")

# softmax weighting: the data-weighting view
for tau in (1.0, 0.3, 0.05):
    weights = risk.softmax_weights(losses, tau)
    print(f"weights tau={tau:<4}: {np.round(weights, 3)}")

# soft maximum with fixed temperature, and with the temperature optimized
# against an uncertainty radius
print("soft max tau=0.3  :", round(risk.kl_regularized_risk(losses, 0.3), 4))
value, tau_star = risk.kl_constrained_risk(losses, rho=2.0, n=len(losses))
print(f"constrained       : {value:.4f} at tau* = {tau_star:.4f}")

# worst-case mean over a chi-square ball, with the attaining weights
value, weights = risk.chi2_dro_risk(losses, rho=0.3, n=len(losses))
print(f"chi2 ball         : {value:.4f} weights {np.round(weights, 3)}")
closed_form = losses.mean() + losses.std() * np.sqrt(2 * 0.3 / len(losses))
print("interior closed form mean + std*sqrt(2 rho/n):", round(closed_form, 4))
# every weight above is positive, so the worst case is that closed form
assert abs(value - closed_form) <= 1e-12, (value, closed_form)

# the reference shift: a model that already solves the easy samples
reference = np.array([0.02, 0.25, 0.10, 0.18, 0.90, 0.35])
shifted = risk.drrho_shift(losses, reference)
print("shifted losses    :", np.round(shifted, 3))
print("top-2 of shifted  :", round(risk.cvar_topk(shifted, 2), 4))
print("note: sample 4 (0.95) drops out of the top-2 once the reference")
print("shows it is just as hard for a well-trained model.")
