"""Robust risk functionals over per-sample loss vectors.

Four ways to upweight hard samples relative to the plain mean, all of them
duals or special cases of worst-case reweighting over a divergence ball
around uniform weights:

 - ``cvar_topk``            mean of the k largest losses
 - ``kl_regularized_risk``  tau * log-mean-exp(losses / tau), fixed tau
 - ``kl_constrained_risk``  the same with tau optimized against a radius
 - ``chi2_dro_risk``        linear maximization over a chi-square ball

``log_mean_exp`` is the row-wise soft maximum behind ``kl_regularized_risk``;
the contrastive losses and the selection scores use it too.
``drrho_shift`` subtracts a reference model's losses first; feeding the
shifted vector to any functional above gives the reference-guided risk.
Every solver here has an independent oracle in the test suite (dense grid
searches and closed forms); tolerances are part of the contract.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

# KL dual search bounds scale with the loss range; see kl_constrained_risk.
TAU_BOUND_LO = 1e-6
TAU_BOUND_HI = 1e6
_TERNARY_ITERS = 80

CHI2_CONSTRAINT_TOL = 1e-10


def _values(losses) -> np.ndarray:
    v = np.asarray(losses, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("losses must form a nonempty 1-d vector")
    return v


def cvar_topk(losses, k: int) -> float:
    """Mean of the k largest losses; ties resolved by (value desc, index asc)."""
    v = _values(losses)
    if not 1 <= k <= v.size:
        raise ValueError(f"k={k} out of range for {v.size} losses")
    order = np.argsort(-v, kind="stable")
    return float(np.mean(v[order[:k]]))


def softmax_weights(losses, tau: float) -> np.ndarray:
    """exp(l_i/tau) / sum_j exp(l_j/tau), max-subtracted, summing to 1 exactly.

    The exact-sum postcondition needs care: after normalization the pairwise
    sum can still be off by an ulp, and nudging one fixed entry does not
    always land on 1.0 because the summation tree rounds differently. We
    nudge whichever entry makes the sum exact (a few-ulp change, far inside
    every accuracy tolerance).
    """
    v = _values(losses)
    if not tau > 0:
        raise ValueError("tau must be positive")
    z = np.exp((v - v.max()) / tau)
    p = z / z.sum()
    for _ in range(4):
        s = np.sum(p)
        if s == 1.0:
            return p
        residual = 1.0 - s
        for idx in np.argsort(-p):
            q = p.copy()
            q[idx] += residual
            if np.sum(q) == 1.0:
                return q
        p[int(np.argmax(p))] += residual
    return p


def log_mean_exp(v: np.ndarray, tau: float) -> np.ndarray:
    """tau * log((1/m) sum exp(v_i / tau)) along the last axis, stabilized
    by subtracting each row's max. A 1-d vector gives a scalar."""
    m = v.max(axis=-1, keepdims=True)
    t = v - m  # the one temporary; scaled and exponentiated in place
    t /= tau
    mean = np.exp(t, out=t).sum(axis=-1) / v.shape[-1]
    return m[..., 0] + tau * np.log(mean)


def kl_regularized_risk(losses, tau: float) -> float:
    """Soft maximum tau * log-mean-exp(losses / tau)."""
    v = _values(losses)
    if not tau > 0:
        raise ValueError("tau must be positive")
    return float(log_mean_exp(v, tau))


def kl_constrained_risk(losses, rho: float, n: int) -> tuple[float, float]:
    """min over tau of tau*log-mean-exp(losses/tau) + tau*rho/n.

    The objective is convex in tau; we bracket [tau_min, tau_max] scaled by
    the loss range and run ternary search on log tau. ``n`` is the dataset
    size appearing in the radius rho/n and need not equal len(losses):
    callers evaluating on a mini-batch choose which n they mean.

    Returns (risk, minimizing tau).
    """
    v = _values(losses)
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if n < 1:
        raise ValueError("n must be at least 1")
    scale = max(1.0, float(v.max() - v.min()))
    lo = np.log(TAU_BOUND_LO * scale)
    hi = np.log(TAU_BOUND_HI * scale)
    radius = rho / n

    def g(log_tau: float) -> float:
        tau = np.exp(log_tau)
        return float(log_mean_exp(v, tau)) + tau * radius

    for _ in range(_TERNARY_ITERS):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    log_tau = 0.5 * (lo + hi)
    tau_star = float(np.exp(log_tau))
    return float(g(log_tau)), tau_star


def _project_simplex(a: np.ndarray) -> np.ndarray:
    """Euclidean projection of a onto the probability simplex (sorted form)."""
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, a.size + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    theta = css[k - 1] / k
    return np.maximum(a - theta, 0.0)


def chi2_dro_risk(losses, rho: float, n: int) -> tuple[float, np.ndarray]:
    """Worst-case mean over the chi-square ball around uniform weights.

    Maximizes sum p_i * l_i over the simplex subject to
    (1/n) sum phi(p_i n) <= rho/n with phi(t) = (t-1)^2 / 2, i.e.
    ||p - 1/n||^2 <= 2 rho / n^2. Outer bisection on the ball multiplier;
    the inner nonnegativity step is an exact simplex projection.

    Returns (risk, attaining weights). Requires len(losses) == n.
    """
    v = _values(losses)
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if n != v.size:
        raise ValueError(f"chi2_dro_risk treats losses as the empirical distribution; n={n} != {v.size}")
    uniform = np.full(n, 1.0 / n)
    r2 = 2.0 * rho / (n * n)
    if rho == 0.0:
        return float(uniform @ v), uniform

    # Ball large enough to contain the unconstrained maximizer (uniform over
    # the argmax set): the constraint is slack, no bisection needed.
    top = v == v.max()
    vertex = top.astype(np.float64) / top.sum()
    if float(np.sum((vertex - uniform) ** 2)) <= r2 + CHI2_CONSTRAINT_TOL:
        return float(vertex @ v), vertex

    def weights_for(lam: float) -> np.ndarray:
        return _project_simplex(uniform + v / lam)

    def residual(lam: float) -> float:
        p = weights_for(lam)
        return float(np.sum((p - uniform) ** 2)) - r2

    # residual decreases in lam: find a bracket, then bisect.
    lam_lo, lam_hi = 1.0, 1.0
    for _ in range(200):
        if residual(lam_hi) <= 0:
            break
        lam_hi *= 2.0
    else:
        raise SolverError("chi2 bisection: failed to bracket from above")
    for _ in range(200):
        if residual(lam_lo) >= 0:
            break
        lam_lo *= 0.5
    else:
        raise SolverError("chi2 bisection: failed to bracket from below")

    for _ in range(200):
        lam_mid = 0.5 * (lam_lo + lam_hi)
        res = residual(lam_mid)
        if abs(res) <= CHI2_CONSTRAINT_TOL:
            break
        if res > 0:
            lam_lo = lam_mid
        else:
            lam_hi = lam_mid
    lam_star = 0.5 * (lam_lo + lam_hi)
    p = weights_for(lam_star)
    if abs(float(np.sum((p - uniform) ** 2)) - r2) > 1e3 * CHI2_CONSTRAINT_TOL:
        raise SolverError(
            f"chi2 solver residual {np.sum((p - uniform) ** 2) - r2:.3e} "
            f"exceeds tolerance at lambda={lam_star:.6e}"
        )
    return float(p @ v), p


def drrho_shift(target_losses, reference_losses) -> np.ndarray:
    """Elementwise target minus reference losses (the learnability signal)."""
    t = _values(target_losses)
    r = _values(reference_losses)
    if t.shape != r.shape:
        raise ValueError(f"loss vectors differ in length: {t.size} vs {r.size}")
    return t - r
