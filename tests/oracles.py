"""Independent oracles the implementation is checked against.

Everything here is deliberately a different algorithm from the library
code: high-precision direct evaluation (mpmath), dense grid searches, and
central finite differences. Oracles stay dumb and slow on purpose. The one
library call is the whole-step oracle's JEST selection, ``jest_select``,
which its own tests check against loops.
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np
from mpmath import mp

from drrho import baselines
from drrho.rng import CounterRng


def rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    """Normwise relative error: max|a - b| / max(1e-8, max|b|)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    return float(np.max(np.abs(approx - exact)) / max(1e-8, np.max(np.abs(exact))))


def finite_diff_matrix(f, w: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f with respect to matrix w."""
    fd = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd[i, j] = (f(wp) - f(wm)) / (2.0 * h)
    return fd


def finite_diff_scalar(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def softmax_direct(values, tau: float) -> np.ndarray:
    """Softmax at 50 decimal digits, rounded to float64 at the end."""
    with mp.workdps(50):
        exps = [mp.e ** (mp.mpf(float(v)) / mp.mpf(tau)) for v in values]
        total = mp.fsum(exps)
        return np.array([float(e / total) for e in exps])


def log_mean_exp_direct(values, tau: float) -> float:
    """tau * log-mean-exp at 50 decimal digits."""
    with mp.workdps(50):
        t = mp.mpf(tau)
        exps = [mp.e ** (mp.mpf(float(v)) / t) for v in values]
        return float(t * mp.log(mp.fsum(exps) / len(exps)))


def kl_to_uniform_direct(values, tau: float) -> float:
    """KL(softmax(values / tau) || uniform) at 50 decimal digits."""
    with mp.workdps(50):
        t = mp.mpf(tau)
        exps = [mp.e ** (mp.mpf(float(v)) / t) for v in values]
        total = mp.fsum(exps)
        n = len(exps)
        return float(mp.fsum(e / total * mp.log(e * n / total) for e in exps))


def topk_mean_direct(values, k: int) -> float:
    """Sort descending (stable in index) and average the first k."""
    pairs = sorted(enumerate(values), key=lambda p: (-p[1], p[0]))
    return float(sum(v for _, v in pairs[:k]) / k)


def kl_constrained_grid(values, rho: float, n: int, points: int = 10**6) -> float:
    """Dense grid over log tau for the constrained soft-maximum dual."""
    v = np.asarray(values, dtype=np.float64)
    scale = max(1.0, float(v.max() - v.min()))
    taus = np.exp(np.linspace(np.log(1e-7 * scale), np.log(1e7 * scale), points))
    m = v.max()
    # broadcast: (points, m_losses); chunk to bound memory
    best = np.inf
    radius = rho / n
    for chunk in np.array_split(taus, 8):
        lse = m + chunk * np.log(np.mean(np.exp((v[None, :] - m) / chunk[:, None]), axis=1))
        best = min(best, float(np.min(lse + chunk * radius)))
    return best


_GRID_BY_N = {2: 801, 3: 201, 4: 41}


def chi2_grid_max(values, rho: float, levels: int = 7) -> float:
    """Brute-force maximization of sum p_i l_i over the simplex intersected
    with the chi-square ball, by multilevel grid refinement (n <= 4).

    Besides the raw grid points, every grid direction is rescaled onto the
    ball boundary (toward or away from uniform, staying on the simplex
    plane), which samples the boundary densely in angle; without this the
    feasible shell near the optimum contains grid points only sporadically
    and refinement can stall.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n not in _GRID_BY_N:
        raise ValueError("grid oracle supports n in {2, 3, 4}")
    grid = _GRID_BY_N[n]
    r2 = 2.0 * rho / (n * n)
    r = np.sqrt(r2)
    uniform = np.full(n, 1.0 / n)
    best_val = float(uniform @ v)
    best_center = uniform[: n - 1].copy()
    lo = np.zeros(n - 1)
    hi = np.ones(n - 1)
    for _ in range(levels):
        axes = [np.linspace(lo[d], hi[d], grid) for d in range(n - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        head = np.stack([m.ravel() for m in mesh], axis=1)
        tail = 1.0 - head.sum(axis=1)
        full = np.concatenate([head, tail[:, None]], axis=1)
        on_simplex = (full >= 0).all(axis=1)
        dist = np.sqrt(((full - uniform) ** 2).sum(axis=1))
        feasible = on_simplex & (dist <= r + 1e-15)
        candidates = [full[feasible]]
        # rescale every nonuniform direction onto the ball boundary
        nz = dist > 1e-15
        scaled = uniform + (full[nz] - uniform) * (r / dist[nz])[:, None]
        candidates.append(scaled[(scaled >= 0).all(axis=1)])
        cand = np.concatenate(candidates, axis=0)
        if len(cand):
            vals = cand @ v
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best_center = cand[j][: n - 1]
        spacing = (hi - lo) / (grid - 1)
        lo = np.maximum(0.0, best_center - 2.0 * spacing)
        hi = np.minimum(1.0, best_center + 2.0 * spacing)
    return best_val


def chi2_support_enumeration(values, rho: float) -> float:
    """Exact optimum by enumerating zero-sets: on each support the problem
    is a linear maximization over a sphere slice with closed-form solution
    mean_S + sqrt(c2) * ||dev_S||, c2 = 2 rho / n^2 - (1/k - 1/n). An
    independent exact reference for small n."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    r2 = 2.0 * rho / (n * n)
    best = -np.inf
    for mask in range(1, 2**n):
        support = np.array([bool(mask >> i & 1) for i in range(n)])
        k = int(support.sum())
        c2 = r2 - (1.0 / k - 1.0 / n)
        if c2 < -1e-15:
            continue
        c2 = max(c2, 0.0)
        vs = v[support]
        dev = vs - vs.mean()
        norm = np.linalg.norm(dev)
        if norm == 0:
            best = max(best, float(vs.mean()))
            continue
        p_s = 1.0 / k + np.sqrt(c2) * dev / norm
        if (p_s >= -1e-12).all():
            best = max(best, float(vs.mean() + np.sqrt(c2) * norm))
    return best


def chi2_interior_closed_form(values, rho: float) -> float:
    """mean + std * sqrt(2 rho / n), valid when all optimal weights stay
    positive (population std, 1/n normalization)."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    return float(v.mean() + v.std() * np.sqrt(2.0 * rho / n))


def chi2_interior_holds(values, rho: float) -> bool:
    """Whether the unclipped optimizer p = u + r (l - mean)/||l - mean||
    stays strictly positive (so the closed form applies)."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    dev = v - v.mean()
    norm = np.linalg.norm(dev)
    if norm == 0:
        return True
    p = 1.0 / n + np.sqrt(2.0 * rho / (n * n)) * dev / norm
    return bool((p > 0).all())


def infonce_direct(s: np.ndarray, tau: float) -> float:
    """Row/column softmax cross-entropy by explicit loops."""
    s = np.asarray(s, dtype=np.float64)
    b = len(s)
    total = 0.0
    for i in range(b):
        row = np.exp(s[i, :] / tau)
        col = np.exp(s[:, i] / tau)
        total += -np.log(row[i] / row.sum()) - np.log(col[i] / col.sum())
    return total / (2 * b)


def distillation_direct(s_t: np.ndarray, s_r: np.ndarray, tau: float, tau_ref: float) -> float:
    """Soft-target cross-entropy by explicit loops over rows and columns;
    each softmax subtracts its max first, so tiny tau_ref cannot overflow."""
    s_t = np.asarray(s_t, dtype=np.float64)
    s_r = np.asarray(s_r, dtype=np.float64)

    def softmax(v, temp):
        e = np.exp((v - v.max()) / temp)
        return e / e.sum()

    b = len(s_t)
    total = 0.0
    for i in range(b):
        total -= float(softmax(s_r[i, :], tau_ref) @ np.log(softmax(s_t[i, :], tau)))
        total -= float(softmax(s_r[:, i], tau_ref) @ np.log(softmax(s_t[:, i], tau)))
    return total / (b * b)


def pairwise_loss(s: np.ndarray, i: int, j: int, direction: str = "image") -> float:
    """Similarity gap of negative j against anchor i's positive pair: the
    image anchor reads row i, the text anchor column i."""
    s = np.asarray(s, dtype=np.float64)
    if direction == "image":
        return float(s[i, j] - s[i, i])
    return float(s[j, i] - s[i, i])


def rho_pairwise_loss(s_t: np.ndarray, s_r: np.ndarray, i: int, j: int, direction: str = "image") -> float:
    """Target gap minus reference gap for the same (i, j, direction)."""
    return pairwise_loss(s_t, i, j, direction) - pairwise_loss(s_r, i, j, direction)


def anchor_loss(s_t: np.ndarray, s_r, i: int, direction: str, tau: float, over: str) -> float:
    """Anchor i's soft maximum over its (reference-shifted when s_r is given)
    pairwise losses, one negative at a time, at 50 decimal digits. ``over``
    is "full" (the anchor's own zero gap included) or "exclude-anchor"."""
    terms = [
        pairwise_loss(s_t, i, j, direction) if s_r is None else rho_pairwise_loss(s_t, s_r, i, j, direction)
        for j in range(len(s_t))
        if over == "full" or j != i
    ]
    return log_mean_exp_direct(terms, tau)


def embed(model, modality: str, raw: np.ndarray) -> np.ndarray:
    """Unit-normalized embedding of one raw vector."""
    w = model.w1 if modality == "image" else model.w2
    h = w @ np.asarray(raw, dtype=np.float64)
    return h / np.linalg.norm(h)


def similarity_grad(model, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the one-pair similarity s(x, y) in w1 and w2, in closed
    form: ((I - e e^T) c / r) v^T per side."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h1, h2 = model.w1 @ x, model.w2 @ y
    r1, r2 = np.linalg.norm(h1), np.linalg.norm(h2)
    e1, e2 = h1 / r1, h2 / r2
    g1 = np.outer((e2 - (e1 @ e2) * e1) / r1, x)
    g2 = np.outer((e1 - (e1 @ e2) * e2) / r2, y)
    return g1, g2


def anchor_loss_direct(gaps: np.ndarray, tau: float) -> float:
    """Direct summation soft maximum (no max subtraction)."""
    return float(tau * np.log(np.mean(np.exp(np.asarray(gaps) / tau))))


def weighted_draws_direct(rng, probs: np.ndarray, k: int) -> np.ndarray:
    """``k`` draws without replacement the slow way, the reference for
    ``CounterRng.weighted_draws``: one uniform, one total and one cumulative
    sum per draw. The uniforms come from one ``uniforms(k)`` call, the
    counter values of ``k`` calls of ``uniforms(1)``; the sums are of plain
    Python floats, left to right, and the search is ``bisect``."""
    p = [float(x) for x in np.asarray(probs, dtype=np.float64).ravel()]
    if k > len(p):
        raise ValueError("cannot draw more items than candidates")
    out = np.empty(k, dtype=np.int64)
    for t, uniform in enumerate(rng.uniforms(k).tolist()):
        cum = list(itertools.accumulate(p))
        total = cum[-1] if cum else 0.0
        if not total > 0.0:
            raise ValueError("probabilities sum to zero before all draws done")
        j = min(bisect.bisect_left(cum, uniform * total), len(p) - 1)
        while p[j] == 0.0 and j + 1 < len(p):  # u landed on a spent index's boundary
            j += 1
        if p[j] == 0.0:
            j = p.index(max(p))
        out[t] = j
        p[j] = 0.0
    return out


def update_u_direct(u1: np.ndarray, u2: np.ndarray, batch, mean1, mean2, gamma: float) -> None:
    """The moving-average u update one batch index at a time, in place: a
    cold (zero) estimator takes the full batch mean unless gamma is 0."""
    for pos, i in enumerate(batch):
        g1 = 1.0 if (u1[i] == 0.0 and gamma > 0.0) else gamma
        g2 = 1.0 if (u2[i] == 0.0 and gamma > 0.0) else gamma
        u1[i] = (1.0 - g1) * u1[i] + g1 * mean1[pos]
        u2[i] = (1.0 - g2) * u2[i] + g2 * mean2[pos]


# The trainer's batch stream and Adam constants, restated so that the step
# oracle checks them instead of reading them.
_STREAM_BATCHES = 10
_BETA1, _BETA2, _OPT_EPS, _WEIGHT_DECAY = 0.9, 0.98, 1e-8, 0.1
_TAU_MIN, _TAU_LR_SCALE = 0.005, 0.25


def batch_direct(config, dataset, t: int) -> np.ndarray:
    """The dataset indices step ``t`` draws (a JEST step's super batch).
    The pool is the head of the train split; epoch e's order of it sorts the
    e-th run of len(pool) raw outputs of the batch stream, ties to the lower
    position, and its batches are consecutive slices with the remainder
    dropped."""
    train = [i for i in range(dataset.n) if dataset.split[i] == 0]
    pool = train[: math.floor(config.train_fraction * len(train))]
    jest = config.method in ("jest", "jest-topk")
    size = round(config.batch_size / config.jest_ratio) if jest else config.batch_size
    epoch, k = divmod(t, len(pool) // size)
    rng = CounterRng(config.seed, _STREAM_BATCHES)
    rng.raw(epoch * len(pool))
    keys = rng.raw(len(pool)).tolist()
    order = sorted(range(len(pool)), key=lambda i: (keys[i], i))
    return np.array([pool[i] for i in order[k * size : (k + 1) * size]])


def _softmax_grad_direct(s, tau: float, scale: float, grad, sign: float = 1.0) -> None:
    """Add sign * scale * (row softmax + column softmax) of ``s / tau`` into
    the nested list ``grad``, one row and one column at a time."""
    b = len(s)
    for i in range(b):
        row = softmax_direct(s[i], tau)
        col = softmax_direct([s[j][i] for j in range(b)], tau)
        for j in range(b):
            grad[i][j] += sign * scale * row[j]
            grad[j][i] += sign * scale * col[j]


def train_step_direct(state, batch, dataset, cache) -> dict:
    """One training step by scalar loops, the reference for ``trainer.step``
    on the state ``state`` (left unchanged), drawing ``batch``.

    A JEST step embeds the super batch row by row and trains on the
    positions ``baselines.jest_select`` keeps. A u method (fastclip, and
    drrho-clip on s_target - s_reference) updates each drawn pair's u with
    its batch mean of exp(gap / tau), then weights negative j of anchor a by
    exp(gap_aj / tau) / ((epsilon + u_a) b (b - 1)); InfoNCE methods take
    the softmax gradient. With distillation the gradients blend as
    (1 - lam) * contrastive + lam * distillation, and tau's distillation
    part is 0. Then one bias-corrected decoupled Adam step, element by
    element, at the warmup/cosine rate. Returns the new w (w1's entries,
    then w2's), tau, u, m and v.
    """
    config, model, t = state.config, state.model, state.step
    tau = model.tau
    batch = [int(i) for i in batch]
    if config.method in ("jest", "jest-topk"):
        e = np.array([[embed(model, side, raw) for raw in raws] for side, raws in
                      (("image", dataset.xs[batch]), ("text", dataset.ys[batch]))])
        outcome = baselines.jest_select(
            e, (cache.e1[batch], cache.e2[batch]), batch, config.jest_ratio, config.jest_chunks,
            mode="topk" if config.method == "jest-topk" else "sample", seed=config.seed + t, score_tau=tau,
        )
        batch = [batch[p] for p in outcome.positions]
    b = len(batch)
    xs, ys = dataset.xs[batch], dataset.ys[batch]
    e1 = [embed(model, "image", x) for x in xs]
    e2 = [embed(model, "text", y) for y in ys]
    s_t = [[float(e1[i] @ e2[j]) for j in range(b)] for i in range(b)]
    if config.method == "drrho-clip" or config.distill:
        s_r = [[float(cache.e1[batch[i]] @ cache.e2[batch[j]]) for j in range(b)] for i in range(b)]

    u = np.array(state.u)
    grad_s = [[0.0] * b for _ in range(b)]
    if config.method in ("fastclip", "drrho-clip"):
        s = s_t if config.method == "fastclip" else [[s_t[i][j] - s_r[i][j] for j in range(b)] for i in range(b)]
        # gaps[k][a][j]: anchor a's gap to negative j, image anchors (k = 0) then text anchors
        gaps = [[[s[a][j] - s[a][a] for j in range(b)] for a in range(b)],
                [[s[j][a] - s[a][a] for j in range(b)] for a in range(b)]]
        q = [[[math.exp(g[a][j] / tau) if j != a else 0.0 for j in range(b)] for a in range(b)] for g in gaps]
        means = [[math.fsum(row) / (b - 1) for row in side] for side in q]
        update_u_direct(u[0], u[1], batch, means[0], means[1], config.gamma)
        g_tau = 2.0 * config.rho_tau
        for k in range(2):
            for a in range(b):
                denom = config.epsilon + u[k][batch[a]]
                for j in range(b):
                    if j != a:
                        c = q[k][a][j] / (denom * b * (b - 1))
                        i, jj = (a, j) if k == 0 else (j, a)
                        grad_s[i][jj] += c
                        grad_s[a][a] -= c
                inner = math.fsum(q[k][a][j] * gaps[k][a][j] for j in range(b)) / ((b - 1) * tau)
                g_tau += (math.log(denom) - inner / denom) / b
    else:
        _softmax_grad_direct(s_t, tau, 1.0 / (2 * b * tau), grad_s)
        for i in range(b):
            grad_s[i][i] -= 1.0 / (b * tau)
        g_tau = -math.fsum(grad_s[i][j] * s_t[i][j] for i in range(b) for j in range(b)) / tau

    def backward(coef) -> np.ndarray:
        g1, g2 = np.zeros_like(model.w1), np.zeros_like(model.w2)
        for i in range(b):
            for j in range(b):
                d1, d2 = similarity_grad(model, xs[i], ys[j])
                g1 += coef[i][j] * d1
                g2 += coef[i][j] * d2
        return np.concatenate((g1.ravel(), g2.ravel()))

    grad_w = backward(grad_s)
    if config.distill:
        dist = [[0.0] * b for _ in range(b)]
        scale = 1.0 / (b * b * tau)
        _softmax_grad_direct(s_t, tau, scale, dist)
        _softmax_grad_direct(s_r, cache.source_tau, scale, dist, sign=-1.0)
        grad_w = (1.0 - config.lam) * grad_w + config.lam * backward(dist)
        g_tau = (1.0 - config.lam) * g_tau

    resolved = config.resolved()
    warmup, total = resolved["warmup_steps"], resolved["effective_steps"]
    if t < warmup:
        lr = config.lr * (t + 1) / warmup
    else:
        lr = config.lr * 0.5 * (1.0 + math.cos(math.pi * min(1.0, (t - warmup) / max(1, total - warmup))))
    bc1, bc2 = 1.0 - _BETA1 ** (t + 1), 1.0 - _BETA2 ** (t + 1)
    w = np.concatenate((model.w1.ravel(), model.w2.ravel())).tolist()
    m, v = state.m.tolist(), state.v.tolist()
    for k, g in enumerate(grad_w.tolist()):
        m[k] = _BETA1 * m[k] + (1.0 - _BETA1) * g
        v[k] = _BETA2 * v[k] + (1.0 - _BETA2) * g * g
        w[k] = w[k] * (1.0 - lr * _WEIGHT_DECAY) - lr * (m[k] / bc1) / (math.sqrt(v[k] / bc2) + _OPT_EPS)
    if config.learnable_tau:
        m_tau = _BETA1 * state.m_tau + (1.0 - _BETA1) * g_tau
        v_tau = _BETA2 * state.v_tau + (1.0 - _BETA2) * g_tau * g_tau
        tau = max(_TAU_MIN, tau - lr * _TAU_LR_SCALE * (m_tau / bc1) / (math.sqrt(v_tau / bc2) + _OPT_EPS))
    return {"w": np.array(w), "tau": tau, "u": u, "m": np.array(m), "v": np.array(v)}


def kl_constrained_ternary(values, rho: float, n: int, iters: int = 80) -> tuple[float, float]:
    """The constrained soft-maximum dual by ternary search on log tau over
    [1e-6, 1e6] * max(1, loss range), the bracket the library uses: it
    never looks at a derivative. Returns (value, tau)."""
    v = np.asarray(values, dtype=np.float64)
    scale = max(1.0, float(v.max() - v.min()))
    lo, hi = np.log(1e-6 * scale), np.log(1e6 * scale)
    m = v.max()

    def g(log_tau: float) -> float:
        tau = np.exp(log_tau)
        return float(m + tau * np.log(np.mean(np.exp((v - m) / tau)))) + tau * rho / n

    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) <= g(m2):
            hi = m2
        else:
            lo = m1
    log_tau = 0.5 * (lo + hi)
    return g(log_tau), float(np.exp(log_tau))


def _project_simplex(a: np.ndarray) -> np.ndarray:
    """Euclidean projection of a onto the probability simplex (sorted form)."""
    u = np.sort(a)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, a.size + 1)
    k = idx[u - css / idx > 0][-1]
    return np.maximum(a - css[k - 1] / k, 0.0)


def chi2_bisection(values, rho: float, rel_tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """The chi-square ball worst case by bisection on the ball multiplier
    lam, with weights proj_simplex(1/n + l / lam): ||p - 1/n||^2 falls as
    lam grows. Stops when it is within rel_tol of r^2 = 2 rho / n^2 or the
    bracket can shrink no further. Returns (value, weights)."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    uniform = np.full(n, 1.0 / n)
    r2 = 2.0 * rho / (n * n)
    top = v == v.max()
    vertex = top / top.sum()
    if rho == 0.0 or float(np.sum((vertex - uniform) ** 2)) <= r2:
        p = uniform if rho == 0.0 else vertex
        return float(p @ v), p

    def residual(lam: float) -> float:
        return float(np.sum((_project_simplex(uniform + v / lam) - uniform) ** 2)) - r2

    lam_lo, lam_hi = 1.0, 1.0
    while residual(lam_hi) > 0:
        lam_hi *= 2.0
    while residual(lam_lo) < 0:
        lam_lo *= 0.5
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        res = residual(lam)
        if abs(res) <= rel_tol * r2 or not lam_lo < lam < lam_hi:
            break
        if res > 0:
            lam_lo = lam
        else:
            lam_hi = lam
    p = _project_simplex(uniform + v / lam)
    return float(p @ v), p
