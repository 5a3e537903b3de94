"""Synthetic paired datasets and the offline reference-embedding cache.

Pairs share a latent vector: ``x = A @ latent + sigma * noise_x`` and
``y = B @ latent + sigma * noise_y`` with fixed seed-determined projections
A, B. With sigma = 0 the matching pair is the unique cosine-nearest
neighbor in latent space, which gives tests and demos a known ground
truth. The split is a deterministic suffix: the last ceil(test_fraction*n)
indices are test, so smaller training fractions are nested prefixes of
larger ones.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import container
from .encoder import pair_embeddings
from .errors import ConfigError, FormatError
from .rng import SEED_LIMIT, CounterRng

SPLIT_TRAIN = 0
SPLIT_TEST = 1

# stream ids for generation; positional draws make regeneration exact
_STREAM_PROJ_X = 0
_STREAM_PROJ_Y = 1
_STREAM_LATENT = 2
_STREAM_NOISE_X = 3
_STREAM_NOISE_Y = 4

_NORM_TOL = 1e-9  # how far a cached embedding's norm may sit from 1


@dataclass(frozen=True)
class PairedDataset:
    """Aligned (x, y) feature pairs with a train/test split tag per index.

    Immutable: the arrays are read-only copies of the inputs and no field
    can be rebound, so the content hash is computed once per dataset.
    """

    xs: np.ndarray  # (n, d_x)
    ys: np.ndarray  # (n, d_y)
    split: np.ndarray  # (n,) of SPLIT_TRAIN / SPLIT_TEST
    seed: int
    noise_sigma: float
    d_latent: int
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, dtype in (("xs", np.float64), ("ys", np.float64), ("split", np.int64)):
            a = np.array(getattr(self, name), dtype=dtype)  # a copy that no caller holds
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.xs.ndim != 2 or self.ys.ndim != 2:
            raise ConfigError("xs and ys must be 2-d arrays")
        if len(self.xs) != len(self.ys) or len(self.split) != len(self.xs):
            raise ConfigError("xs, ys, split must have identical length")
        if not np.isin(self.split, [SPLIT_TRAIN, SPLIT_TEST]).all():
            raise ConfigError("split labels must be train(0) or test(1)")
        # held as the JSON type a manifest gives back, which the content hash covers
        for name, kind in (("seed", int), ("noise_sigma", float), ("d_latent", int)):
            value = getattr(self, name)
            value = value.item() if isinstance(value, np.generic) else value  # a numpy scalar's number
            if why := container.json_type_error(value, (kind,)):
                raise ConfigError(f"{name}: {why}")
            object.__setattr__(self, name, kind(value))

    def __setstate__(self, state: dict) -> None:
        # A sweep's worker receives the dataset pickled, and unpickled arrays
        # are writable: read-only again, they keep the carried hash true.
        self.__dict__.update(state)
        for a in (self.xs, self.ys, self.split):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def d_x(self) -> int:
        return self.xs.shape[1]

    @property
    def d_y(self) -> int:
        return self.ys.shape[1]

    @property
    def train_indices(self) -> np.ndarray:
        return np.flatnonzero(self.split == SPLIT_TRAIN)

    @property
    def test_indices(self) -> np.ndarray:
        return np.flatnonzero(self.split == SPLIT_TEST)

    def content_hash(self) -> str:
        """SHA-256 over payload bytes and generation parameters, computed on
        the first call and held: nothing it covers can change."""
        if self._hash is None:
            h = hashlib.sha256()
            h.update(self.xs.astype("<f8").tobytes(order="C"))
            h.update(self.ys.astype("<f8").tobytes(order="C"))
            h.update(self.split.astype("<i8").tobytes(order="C"))
            h.update(f"{self.seed}|{self.noise_sigma!r}|{self.d_latent}".encode())
            object.__setattr__(self, "_hash", h.hexdigest())
        return self._hash


@dataclass
class EmbeddingCache:
    """Unit-normalized reference embeddings for both sides of every pair."""

    e1: np.ndarray  # (n, d) first modality
    e2: np.ndarray  # (n, d) second modality
    source_id: str  # identity hash of the model that produced it
    dataset_id: str  # content hash of the embedded dataset
    source_tau: float  # temperature of the source model, for distillation

    def __post_init__(self):
        self.e1 = np.asarray(self.e1, dtype=np.float64)
        self.e2 = np.asarray(self.e2, dtype=np.float64)
        if self.e1.shape != self.e2.shape or self.e1.ndim != 2:
            raise ConfigError("e1 and e2 must be 2-d arrays with identical shape")
        for name, e in (("e1", self.e1), ("e2", self.e2)):
            norms = np.linalg.norm(e, axis=1)
            if not np.all(np.abs(norms - 1.0) <= _NORM_TOL):
                raise ConfigError(f"{name} rows must be unit-normalized within {_NORM_TOL}")
        # without the dataset's hash, train could not tell this cache from
        # one of another dataset
        if not self.dataset_id:
            raise ConfigError("dataset_id: a cache must name the dataset it embeds")
        if not (np.isfinite(self.source_tau) and self.source_tau > 0):
            raise ConfigError(f"source_tau: must be finite and positive, got {self.source_tau!r}")

    @property
    def n(self) -> int:
        return len(self.e1)

    @property
    def d(self) -> int:
        return self.e1.shape[1]

    def similarity(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Reference cosine similarities e1[rows] @ e2[rows].T, into ``out`` if given."""
        return np.matmul(self.e1[rows], self.e2[rows].T, out=out)


def check_cache_matches(cache: EmbeddingCache, dataset: PairedDataset) -> None:
    """ConfigError naming ``cache`` unless the cache embeds this dataset."""
    if cache.n != dataset.n:
        raise ConfigError(f"cache: holds {cache.n} pairs but dataset has {dataset.n}")
    if cache.dataset_id != dataset.content_hash():
        raise ConfigError("cache: dataset_id does not match this dataset (id_hash mismatch)")


def synthetic_projections(d_x: int, d_y: int, d_latent: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed projection matrices A (d_x, d_latent), B (d_y, d_latent)
    used by generate_synthetic for this seed. Exposed so tests and demos
    can recover ground-truth latents."""
    a = CounterRng(seed, _STREAM_PROJ_X).normals((d_x, d_latent)) / np.sqrt(d_latent)
    b = CounterRng(seed, _STREAM_PROJ_Y).normals((d_y, d_latent)) / np.sqrt(d_latent)
    return a, b


def generate_synthetic(
    n: int,
    d_x: int,
    d_y: int,
    d_latent: int,
    noise_sigma: float,
    test_fraction: float,
    seed: int,
) -> PairedDataset:
    """Generate n aligned pairs from shared latents.

    Deterministic: the same (n, d_x, d_y, d_latent, noise_sigma, seed)
    reproduce bit-identical arrays; test_fraction only relabels the split.
    """
    for name, value in dict(locals()).items():  # each argument of its annotated JSON type, before any use
        value = value.item() if isinstance(value, np.generic) else value
        if why := container.json_type_error(value, (float if name in ("noise_sigma", "test_fraction") else int,)):
            raise ConfigError(f"{name}: {why}")
    if n < 2:
        raise ConfigError("n must be at least 2")
    if d_latent < 1 or d_latent > min(d_x, d_y):
        raise ConfigError("d_latent must satisfy 1 <= d_latent <= min(d_x, d_y)")
    if not 0 <= noise_sigma < np.inf:
        raise ConfigError(f"noise_sigma: must be finite and nonnegative, got {noise_sigma!r}")
    if not 0.0 <= test_fraction <= 1.0:
        raise ConfigError("test_fraction must lie in [0, 1]")
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"seed: must lie in [0, 2**63), got {seed!r}")

    a, b = synthetic_projections(d_x, d_y, d_latent, seed)
    latents = CounterRng(seed, _STREAM_LATENT).normals((n, d_latent))
    noise_x = CounterRng(seed, _STREAM_NOISE_X).normals((n, d_x))
    noise_y = CounterRng(seed, _STREAM_NOISE_Y).normals((n, d_y))
    xs = latents @ a.T + noise_sigma * noise_x
    ys = latents @ b.T + noise_sigma * noise_y

    n_test = int(np.ceil(test_fraction * n))
    split = np.full(n, SPLIT_TRAIN, dtype=np.int64)
    if n_test > 0:
        split[n - n_test :] = SPLIT_TEST
    return PairedDataset(xs=xs, ys=ys, split=split, seed=seed, noise_sigma=noise_sigma, d_latent=d_latent)


def build_reference_cache(dataset: PairedDataset, reference) -> EmbeddingCache:
    """Embed every pair with the reference model, offline, in dataset order."""
    if reference.d_x != dataset.d_x or reference.d_y != dataset.d_y:
        raise ConfigError(
            f"reference encoder dims ({reference.d_x}, {reference.d_y}) "
            f"do not match dataset dims ({dataset.d_x}, {dataset.d_y})"
        )
    e, _ = pair_embeddings(reference, dataset.xs, dataset.ys)
    return EmbeddingCache(
        e1=e[0],
        e2=e[1],
        source_id=reference.id_hash,
        dataset_id=dataset.content_hash(),
        source_tau=float(reference.tau),
    )


# The manifest entries each loader builds from; the rest of the meta is derived.
_DATASET_META_TYPES = {"seed": (int,), "noise_sigma": (float,), "d_latent": (int,)}
_CACHE_META_TYPES = {"source_id": (str,), "dataset_id": (str,), "source_tau": (float,)}


def _dataset_meta(dataset: PairedDataset) -> dict:
    """What a dataset file's manifest says of its dataset."""
    return {"n": dataset.n, "d_x": dataset.d_x, "d_y": dataset.d_y, "d_latent": dataset.d_latent,
            "noise_sigma": dataset.noise_sigma, "seed": dataset.seed, "content_hash": dataset.content_hash()}


def save_dataset(dataset: PairedDataset, path: str | Path) -> None:
    arrays = {"xs": dataset.xs, "ys": dataset.ys, "split": dataset.split.astype(np.float64)}
    container.write_container(path, container.KIND_DATASET, arrays, meta=_dataset_meta(dataset))


def load_dataset(path: str | Path) -> PairedDataset:
    """A saved dataset; FormatError naming the first manifest entry that is
    out of range or differs from what the dataset writes."""
    arrays, meta = container.read_container(path, expect_kind=container.KIND_DATASET)
    container.require_arrays(path, arrays, ("xs", "ys", "split"))
    inputs = container.require_meta(path, meta, _DATASET_META_TYPES)
    checks = [
        ("seed", 0 <= inputs["seed"] < SEED_LIMIT, "outside [0, 2**63)"),
        ("noise_sigma", math.isfinite(inputs["noise_sigma"]) and inputs["noise_sigma"] >= 0, "not finite and >= 0"),
        ("d_latent", inputs["d_latent"] >= 1, "below 1"),
    ]
    for name, ok, why in checks:
        if not ok:
            raise FormatError(f"{path}: manifest meta {name!r} is {meta[name]!r}, {why}")
    dataset = PairedDataset(xs=arrays["xs"], ys=arrays["ys"], split=arrays["split"].astype(np.int64), **inputs)
    container.require_derived(path, meta, _dataset_meta(dataset))
    return dataset


def _cache_meta(cache: EmbeddingCache) -> dict:
    """What a cache file's manifest says of its cache."""
    return {"n": cache.n, "d": cache.d, "source_id": cache.source_id, "dataset_id": cache.dataset_id,
            "source_tau": cache.source_tau}


def save_cache(cache: EmbeddingCache, path: str | Path) -> None:
    container.write_container(path, container.KIND_CACHE, {"e1": cache.e1, "e2": cache.e2}, meta=_cache_meta(cache))


def load_cache(path: str | Path) -> EmbeddingCache:
    """A saved cache; FormatError naming the first manifest entry that is
    mistyped or differs from what the cache writes."""
    arrays, meta = container.read_container(path, expect_kind=container.KIND_CACHE)
    container.require_arrays(path, arrays, ("e1", "e2"))
    inputs = container.require_meta(path, meta, _CACHE_META_TYPES)
    inputs["source_tau"] = float(inputs["source_tau"])
    cache = EmbeddingCache(e1=arrays["e1"], e2=arrays["e2"], **inputs)
    container.require_derived(path, meta, _cache_meta(cache))
    return cache
