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
The two duals are solved from their optimality conditions, not searched:
Newton steps on tau's first-order condition, and one sort that scores the
closed-form weights of every top-k support. Every solver here has an
independent oracle in the test suite (grid and ternary searches, bisection,
closed forms); tolerances are part of the contract.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

# KL dual bracket for tau, scaled by the loss range; see kl_constrained_risk.
TAU_BOUND_LO = 1e-6
TAU_BOUND_HI = 1e6
_KL_LOG_TAU_TOL = 1e-10  # the Newton step in log tau at which the KL dual stops
_KL_MAX_STEPS = 100

CHI2_CONSTRAINT_TOL = 1e-10  # relative to the squared ball radius


def _values(losses) -> np.ndarray:
    v = np.asarray(losses, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("losses must form a nonempty 1-d vector")
    if not np.isfinite(v).all():
        raise ValueError("losses must be finite (found NaN or inf)")
    return v


def cvar_topk(losses, k: int) -> float:
    """Mean of the k largest losses, summed in descending order; ties do not change it."""
    v = _values(losses)
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= v.size:
        raise ValueError(f"k={k} out of range for {v.size} losses")
    top = np.sort(np.partition(v, v.size - k)[v.size - k :])
    return float(np.mean(top[::-1]))


def softmax_weights(losses, tau: float) -> np.ndarray:
    """exp(l_i/tau) / sum_j exp(l_j/tau), max-subtracted, summing to 1 exactly.

    The exact-sum postcondition needs care: after normalization the pairwise
    sum can still be off by an ulp, and nudging one fixed entry does not
    always land on 1.0 because the summation tree rounds differently. We
    nudge whichever entry makes the sum exact (a few-ulp change, far inside
    every accuracy tolerance).
    """
    v = _values(losses)
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
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


def log_mean_exp(v: np.ndarray, tau: float, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """tau * log((1/m) sum exp(v_i / tau)) along ``axis``, stabilized by
    subtracting each lane's max. A 1-d vector gives a scalar. ``out``, of
    v's shape, takes the one temporary if given."""
    m = v.max(axis=axis, keepdims=True)
    t = np.subtract(v, m, out=out)  # scaled and exponentiated in place
    t /= tau
    mean = np.exp(t, out=t).sum(axis=axis) / v.shape[axis]
    return m.squeeze(axis) + tau * np.log(mean)


def kl_regularized_risk(losses, tau: float) -> float:
    """Soft maximum tau * log-mean-exp(losses / tau)."""
    v = _values(losses)
    if not 0 < tau < np.inf:
        raise ValueError("tau must be positive and finite")
    return float(log_mean_exp(v, tau))


def kl_constrained_risk(losses, rho: float, n: int) -> tuple[float, float]:
    """min over tau of tau*log-mean-exp(losses/tau) + tau*rho/n.

    With x = log tau the derivative has the sign of h(x) = rho/n -
    KL(softmax(losses/tau) || uniform), increasing with dh/dx = Var_p(losses/tau).
    Its root in [TAU_BOUND_LO, TAU_BOUND_HI] * max(1, loss range) is found by
    Newton steps safeguarded by bisection; where h keeps one sign, the end it
    points to is the minimizer. ``n`` is the dataset size in the radius rho/n
    and need not equal len(losses): callers on a mini-batch choose which n.

    Returns (risk, minimizing tau).
    """
    v = _values(losses)
    if not 0 <= rho < np.inf:
        raise ValueError("rho must be nonnegative and finite")
    if not 1 <= n < np.inf:
        raise ValueError("n must be at least 1 and finite")
    scale = max(1.0, float(v.max() - v.min()))
    lo, hi = np.log(TAU_BOUND_LO * scale), np.log(TAU_BOUND_HI * scale)
    radius = rho / n
    shifted = v - v.max()

    def slope(x: float) -> tuple[float, float]:  # h(x) and dh/dx from one exp pass
        z = shifted / np.exp(x)
        e = np.exp(z)
        total = e.sum()
        mean_z = float(e @ z) / total
        var_z = float((e * z) @ z) / total - mean_z * mean_z
        return radius - mean_z + float(np.log(total / v.size)), var_z

    h_lo, _ = slope(lo)
    h_hi, var_hi = slope(hi)
    x = lo if h_lo >= 0.0 else hi
    if h_lo < 0.0 < h_hi:
        # First guess from the small-KL expansion KL ~ Var_p / 2, read at hi (none at rho = 0).
        guess = hi + 0.5 * np.log(var_hi / (2.0 * radius)) if var_hi > 0.0 and radius > 0.0 else lo
        x = guess if lo < guess < hi else 0.5 * (lo + hi)
        step = hi - lo
        for _ in range(_KL_MAX_STEPS):
            h, dh = slope(x)
            lo, hi = (x, hi) if h < 0.0 else (lo, x)
            newton = -h / dh if dh > 0.0 else np.inf
            # Newton while it stays in the bracket and at least halves the last step.
            step = newton if lo <= x + newton <= hi and abs(2.0 * newton) <= abs(step) else 0.5 * (lo + hi) - x
            x += step
            if abs(step) <= _KL_LOG_TAU_TOL:
                break
        else:
            raise SolverError(f"KL dual: no root of the tau condition in {_KL_MAX_STEPS} steps")
    tau_star = float(np.exp(x))
    return float(log_mean_exp(v, tau_star)) + tau_star * radius, tau_star


def chi2_dro_risk(losses, rho: float, n: int) -> tuple[float, np.ndarray]:
    """Worst-case mean over the chi-square ball around uniform weights.

    Maximizes sum p_i * l_i over the simplex subject to
    (1/n) sum phi(p_i n) <= rho/n with phi(t) = (t-1)^2 / 2, i.e.
    ||p - 1/n||^2 <= r^2 = 2 rho / n^2. The optimal p is nonzero only on the
    k largest losses, p = 1/k + c_k (l - mean_k) / ||dev_k|| there, with
    c_k = sqrt(r^2 - (1/k - 1/n)). Prefix sums of one sort score every k; the
    best k whose smallest weight is nonnegative is the optimum.

    Returns (risk, attaining weights). Requires len(losses) == n.
    """
    v = _values(losses)
    if not 0 <= rho < np.inf:
        raise ValueError("rho must be nonnegative and finite")
    if n != v.size:
        raise ValueError(f"chi2_dro_risk treats losses as the empirical distribution; n={n} != {v.size}")
    uniform = np.full(n, 1.0 / n)
    r2 = 2.0 * rho / (n * n)
    if rho == 0.0:
        return float(uniform @ v), uniform

    # Ball large enough to contain the unconstrained maximizer (uniform over
    # the argmax set): the constraint is slack.
    top = v == v.max()
    vertex = top / top.sum()
    if float(np.sum((vertex - uniform) ** 2)) <= r2 * (1.0 + CHI2_CONSTRAINT_TOL):
        return float(vertex @ v), vertex

    desc = np.sort(v)[::-1]
    shifted = desc - desc[0]  # at most 0, so the prefix sums below do not cancel
    k = np.arange(1, n + 1)
    sums = np.cumsum(shifted)
    means = sums / k
    norms = np.sqrt(np.maximum(np.cumsum(shifted * shifted) - sums * means, 0.0))
    c2 = r2 - (1.0 / k - 1.0 / n)
    c = np.sqrt(np.maximum(c2, 0.0))
    # The k-th largest carries the smallest weight 1/k + c (l_k - mean_k) / ||dev_k||.
    feasible = (c2 >= 0.0) & (norms >= k * c * (means - shifted))
    if not feasible.any():
        raise SolverError("chi2 solver: no support size gives nonnegative weights")
    best = int(np.argmax(np.where(feasible, means + c * norms, -np.inf)))
    support = shifted[: best + 1]
    mean = support.mean()
    p = np.maximum(1.0 / (best + 1) + c[best] * (v - desc[0] - mean) / np.linalg.norm(support - mean), 0.0)
    residual = float(np.sum((p - uniform) ** 2)) - r2
    if abs(residual) > CHI2_CONSTRAINT_TOL * r2:
        raise SolverError(f"chi2 solver residual {residual:.3e} exceeds tolerance at r^2={r2:.3e}")
    return float(p @ v), p


def drrho_shift(target_losses, reference_losses) -> np.ndarray:
    """Elementwise target minus reference losses (the learnability signal)."""
    t = _values(target_losses)
    r = _values(reference_losses)
    if t.shape != r.shape:
        raise ValueError(f"loss vectors differ in length: {t.size} vs {r.size}")
    return t - r
