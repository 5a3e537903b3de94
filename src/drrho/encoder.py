"""Two-tower linear encoders with unit-normalized outputs.

Each side embeds a raw feature vector v as W v / ||W v||, so cosine
similarity between sides is a plain dot product of embeddings. Gradients
through the normalization are closed-form: for e = W v / r with
r = ||W v||, perturbing W moves e inside the tangent plane at e, giving

    d s(e, c) / dW = ((I - e e^T) c / r) v^T

for any fixed cosine partner c. ``similarity_backward`` chains an arbitrary
dLoss/dS through a whole batch similarity matrix with this rule, which is
how every training objective here turns into weight gradients.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import container
from .errors import ConfigError, DegenerateEmbeddingError, FormatError
from .rng import CounterRng

DEGENERACY_THRESHOLD = 1e-12

_STREAM_W1 = 0
_STREAM_W2 = 1


@dataclass
class TwoTowerModel:
    """All trainable parameters: two projection matrices plus temperature."""

    w1: np.ndarray  # (d, d_x) image side
    w2: np.ndarray  # (d, d_y) text side
    tau: float = 0.01

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ConfigError("w1 and w2 must be matrices")
        if self.w1.shape[0] != self.w2.shape[0]:
            raise ConfigError("both towers must share the embedding dim")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")

    @property
    def d(self) -> int:
        return self.w1.shape[0]

    @property
    def d_x(self) -> int:
        return self.w1.shape[1]

    @property
    def d_y(self) -> int:
        return self.w2.shape[1]

    @property
    def id_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.w1.astype("<f8").tobytes(order="C"))
        h.update(self.w2.astype("<f8").tobytes(order="C"))
        h.update(np.float64(self.tau).tobytes())
        return h.hexdigest()[:16]

    def copy(self) -> "TwoTowerModel":
        return TwoTowerModel(w1=self.w1.copy(), w2=self.w2.copy(), tau=self.tau)


def init_model(d: int, d_x: int, d_y: int, seed: int, tau: float = 0.01) -> TwoTowerModel:
    """Seeded init: entries i.i.d. N(0, 1/fan_in) per tower."""
    w1 = CounterRng(seed, _STREAM_W1).normals((d, d_x)) / np.sqrt(d_x)
    w2 = CounterRng(seed, _STREAM_W2).normals((d, d_y)) / np.sqrt(d_y)
    return TwoTowerModel(w1=w1, w2=w2, tau=tau)


@dataclass
class BatchForward:
    """Both towers' unit embeddings and pre-normalization norms, and the similarity matrix, of a batch."""

    e: np.ndarray  # (2, b, d): image rows e[0], text rows e[1]
    r: np.ndarray  # (2, b)
    s: np.ndarray  # (b, b) <e[0, i], e[1, j]>; a drrho-clip step subtracts s_reference into it

    @classmethod
    def of(cls, e, r, out: np.ndarray | None = None) -> "BatchForward":
        """The forward pass of these embedding rows; the similarity matrix
        goes into ``out`` if given."""
        return cls(e=e, r=r, s=np.matmul(e[0], e[1].T, out=out))


def pair_embeddings(model: TwoTowerModel, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A batch's (e, r): both towers' unit embeddings (2, b, d) and their
    pre-normalization norms (2, b), the forward pass short of the similarity.
    One array per quantity, so that one numpy call normalizes both towers."""
    if len(xs) != len(ys):
        raise ConfigError("image and text batches must have equal size")
    towers = ("image", "text")
    h = np.empty((2, len(xs), model.d))
    # Overflow shows as inf or nan, which the trainer's checks name.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (raws, w) in enumerate(((xs, model.w1), (ys, model.w2))):
            raws = np.asarray(raws, dtype=np.float64)
            if raws.ndim != 2 or raws.shape[1] != w.shape[1]:
                raise ConfigError(f"{towers[k]} batch has shape {raws.shape}, expected (*, {w.shape[1]})")
            np.matmul(raws, w.T, out=h[k])
        r = np.linalg.norm(h, axis=-1)
        if np.isinf(r).any():  # hypot does not square, so a finite row's norm fits again
            for k in np.flatnonzero(np.isinf(r).any(axis=-1)):
                r[k] = np.hypot.reduce(h[k], axis=-1)
        bad = r < DEGENERACY_THRESHOLD
        if bad.any():
            k = np.flatnonzero(bad.any(axis=-1))[0]
            rows = np.flatnonzero(bad[k])[:5].tolist()
            raise DegenerateEmbeddingError(f"{towers[k]} embedding norm below threshold at rows {rows}")
        h /= r[..., None]  # in place: a cache build embeds the whole pool
        return h, r


def batch_forward(
    model: TwoTowerModel, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None
) -> BatchForward:
    """The batch's forward pass; the similarity matrix goes into ``out`` if given."""
    return BatchForward.of(*pair_embeddings(model, xs, ys), out=out)


def similarity_backward(
    fwd: BatchForward,
    xs: np.ndarray,
    ys: np.ndarray,
    grad_s: np.ndarray,
) -> dict[str, np.ndarray]:
    """Chain dLoss/dS (b, b) through the batch into {"w1": ..., "w2": ...}.

    Sum over pairs of grad_s[i, j] * d s_ij / dW, vectorized over both
    towers at once: rows aggregate over the cosine partners first, then
    project out the radial component and contract with the raw inputs.
    """
    grad_s = np.asarray(grad_s, dtype=np.float64)
    if grad_s.shape != fwd.s.shape:
        raise ConfigError(f"grad_s shape {grad_s.shape} does not match similarity {fwd.s.shape}")
    v = np.empty_like(fwd.e)
    np.matmul(grad_s, fwd.e[1], out=v[0])  # partner sum per image row
    np.matmul(grad_s.T, fwd.e[0], out=v[1])  # partner sum per text column
    v -= np.sum(v * fwd.e, axis=2, keepdims=True) * fwd.e
    v /= fwd.r[..., None]
    return {"w1": v[0].T @ np.asarray(xs, dtype=np.float64), "w2": v[1].T @ np.asarray(ys, dtype=np.float64)}


def _model_meta(model: TwoTowerModel) -> dict:
    """What a model file's manifest says of its model."""
    return {"d": model.d, "d_x": model.d_x, "d_y": model.d_y, "id_hash": model.id_hash}


def save_model(model: TwoTowerModel, path) -> None:
    """Write ``w1``, ``w2`` and ``tau`` as an array of shape (1,)."""
    arrays = {"w1": model.w1, "w2": model.w2, "tau": np.array([model.tau])}
    container.write_container(path, container.KIND_MODEL, arrays, meta=_model_meta(model))


def load_model(path) -> TwoTowerModel:
    """A saved model; FormatError naming an array missing, ``tau`` unless of
    shape (1,), or a manifest entry that disagrees with the weights."""
    arrays, meta = container.read_container(path, expect_kind=container.KIND_MODEL)
    container.require_arrays(path, arrays, ("w1", "w2", "tau"))
    if arrays["tau"].shape != (1,):
        raise FormatError(f"{path}: array 'tau' has shape {arrays['tau'].shape}, expected (1,)")
    model = TwoTowerModel(w1=arrays["w1"], w2=arrays["w2"], tau=float(arrays["tau"][0]))
    container.require_derived(path, meta, _model_meta(model))
    return model
