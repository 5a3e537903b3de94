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


def _weight(model: TwoTowerModel, modality: str) -> np.ndarray:
    if modality == "image":
        return model.w1
    if modality == "text":
        return model.w2
    raise ValueError(f"modality must be 'image' or 'text', got {modality!r}")


def embed_batch(model: TwoTowerModel, modality: str, raws: np.ndarray) -> np.ndarray:
    """Unit-normalized embeddings for a (b, d_in) batch, row per input."""
    e, _ = _embed_batch_with_norms(model, modality, raws)
    return e


def _embed_batch_with_norms(model: TwoTowerModel, modality: str, raws: np.ndarray):
    w = _weight(model, modality)
    raws = np.asarray(raws, dtype=np.float64)
    if raws.ndim != 2 or raws.shape[1] != w.shape[1]:
        raise ConfigError(f"{modality} batch has shape {raws.shape}, expected (*, {w.shape[1]})")
    # Overflow shows as inf or nan, which the trainer's checks name.
    with np.errstate(over="ignore", invalid="ignore"):
        h = raws @ w.T
        r = np.linalg.norm(h, axis=1)
        if np.isinf(r).any():  # hypot does not square, so a finite row's norm fits again
            r = np.hypot.reduce(h, axis=1)
        bad = r < DEGENERACY_THRESHOLD
        if bad.any():
            raise DegenerateEmbeddingError(
                f"{modality} embedding norm below threshold at rows {np.flatnonzero(bad)[:5].tolist()}"
            )
        return h / r[:, None], r


@dataclass
class BatchForward:
    """Embeddings, pre-normalization norms, and the similarity matrix for a batch."""

    e1: np.ndarray  # (b, d)
    e2: np.ndarray  # (b, d)
    r1: np.ndarray  # (b,)
    r2: np.ndarray  # (b,)
    s: np.ndarray  # (b, b), s[i, j] = <e1_i, e2_j>


def batch_forward(
    model: TwoTowerModel, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None
) -> BatchForward:
    """The batch's forward pass; the similarity matrix goes into ``out`` if given."""
    if len(xs) != len(ys):
        raise ConfigError("image and text batches must have equal size")
    e1, r1 = _embed_batch_with_norms(model, "image", xs)
    e2, r2 = _embed_batch_with_norms(model, "text", ys)
    return BatchForward(e1=e1, e2=e2, r1=r1, r2=r2, s=np.matmul(e1, e2.T, out=out))


def similarity_backward(
    fwd: BatchForward,
    xs: np.ndarray,
    ys: np.ndarray,
    grad_s: np.ndarray,
) -> dict[str, np.ndarray]:
    """Chain dLoss/dS (b, b) through the batch into {"w1": ..., "w2": ...}.

    Sum over pairs of grad_s[i, j] * d s_ij / dW, vectorized:
    rows aggregate over the cosine partners first, then project out the
    radial component and contract with the raw inputs.
    """
    grad_s = np.asarray(grad_s, dtype=np.float64)
    if grad_s.shape != fwd.s.shape:
        raise ConfigError(f"grad_s shape {grad_s.shape} does not match similarity {fwd.s.shape}")
    v1 = grad_s @ fwd.e2  # (b, d): partner sum per image row
    v1 -= np.sum(v1 * fwd.e1, axis=1, keepdims=True) * fwd.e1
    g_w1 = (v1 / fwd.r1[:, None]).T @ np.asarray(xs, dtype=np.float64)
    v2 = grad_s.T @ fwd.e1  # (b, d): partner sum per text column
    v2 -= np.sum(v2 * fwd.e2, axis=1, keepdims=True) * fwd.e2
    g_w2 = (v2 / fwd.r2[:, None]).T @ np.asarray(ys, dtype=np.float64)
    return {"w1": g_w1, "w2": g_w2}


def save_model(model: TwoTowerModel, path) -> None:
    container.write_container(
        path,
        container.KIND_MODEL,
        {"w1": model.w1, "w2": model.w2, "tau": np.array([model.tau])},
        meta={"d": model.d, "d_x": model.d_x, "d_y": model.d_y, "id_hash": model.id_hash},
    )


def load_model(path) -> TwoTowerModel:
    arrays, meta = container.read_container(path, expect_kind=container.KIND_MODEL)
    container.require_arrays(path, arrays, ("w1", "w2", "tau"))
    model = TwoTowerModel(w1=arrays["w1"], w2=arrays["w2"], tau=float(arrays["tau"][0]))
    declared = container.require_meta(path, meta, {"id_hash": (str,)})["id_hash"]
    if declared != model.id_hash:
        raise FormatError(f"{path}: stored id_hash {declared} does not match weights")
    return model
