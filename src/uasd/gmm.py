"""Diagonal-covariance Gaussian mixture fitted by EM, used as the
label-free outlier detector on activity-model embeddings.

The anomaly score of an embedding is its negative log-likelihood under
the mixture (log-sum-exp stabilized); a clip's score averages that over
every (window, offset) embedding the clip produces. Fitting is
deterministic given (data, seed): k-means++ seeds the means, EM runs
until the relative change of the mean log-likelihood drops below the
tolerance, and collapse is prevented by variance and weight floors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activity import ActivityModelParams, embed_features
from .errors import DegenerateInputError
from .features import FeatureMatrix

VARIANCE_FLOOR = 1e-6
WEIGHT_FLOOR = 1e-12


@dataclass
class GmmConfig:
    components: int = 5
    max_iter: int = 200
    tol: float = 1e-6
    max_vectors: int = 200_000


@dataclass
class GmmModel:
    weights: np.ndarray  # (M,)
    means: np.ndarray  # (M, D)
    variances: np.ndarray  # (M, D) diagonal covariances
    log_likelihood_trace: list[float] = field(default_factory=list)
    n_iterations: int = 0


def _log_densities(x: np.ndarray, model_or_triplet) -> np.ndarray:
    """(N, M) log of weight_m * N(x_n; mean_m, diag var_m).

    The quadratic form expands into three (N, D) @ (D, M) products, so no
    N x M x D intermediate is ever built.
    """
    if isinstance(model_or_triplet, GmmModel):
        w, mu, var = (model_or_triplet.weights, model_or_triplet.means,
                      model_or_triplet.variances)
    else:
        w, mu, var = model_or_triplet
    inv = 1.0 / var
    quad = x**2 @ inv.T - 2.0 * (x @ (mu * inv).T) + (mu**2 * inv).sum(axis=1)
    log_norm = -0.5 * (x.shape[1] * np.log(2.0 * np.pi) + np.log(var).sum(axis=1))
    return np.log(w) + log_norm - 0.5 * quad


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    peak = a.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def kmeans_plusplus(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Classic D^2-weighted seeding; returns (k, D) initial centers."""
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(x.shape[0])]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for m in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[m:] = centers[0]
            break
        centers[m] = x[rng.choice(x.shape[0], p=d2 / total)]
        d2 = np.minimum(d2, ((x - centers[m]) ** 2).sum(axis=1))
    return centers


def fit_gmm(
    x: np.ndarray, config: GmmConfig, rng: np.random.Generator
) -> GmmModel:
    """EM fit; the trace records the mean log-likelihood per iteration."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DegenerateInputError("fit_gmm expects an (N, D) matrix")
    n, dim = x.shape
    m = config.components
    if n < 10 * m:
        raise DegenerateInputError(
            f"{n} vectors is too few to fit {m} components (need >= {10 * m})"
        )
    if n > config.max_vectors:
        keep = rng.choice(n, size=config.max_vectors, replace=False)
        x = x[np.sort(keep)]
        n = x.shape[0]

    means = kmeans_plusplus(x, m, rng)
    variances = np.tile(
        np.maximum(x.var(axis=0), VARIANCE_FLOOR), (m, 1)
    )
    weights = np.full(m, 1.0 / m)

    trace: list[float] = []
    iteration = 0
    for iteration in range(1, config.max_iter + 1):
        log_joint = _log_densities(x, (weights, means, variances))
        log_total = _logsumexp(log_joint, axis=1)
        mean_ll = float(log_total.mean())
        trace.append(mean_ll)

        resp = np.exp(log_joint - log_total[:, None])
        bulk = resp.sum(axis=0)
        weights = np.maximum(bulk / n, WEIGHT_FLOOR)
        weights /= weights.sum()
        safe_bulk = np.maximum(bulk, 1e-10)[:, None]
        means = (resp.T @ x) / safe_bulk
        second_moment = (resp.T @ x**2) / safe_bulk
        variances = np.maximum(second_moment - means**2, VARIANCE_FLOOR)

        if len(trace) >= 2:
            prev = trace[-2]
            if abs(mean_ll - prev) < config.tol * max(abs(prev), 1e-12):
                break

    return GmmModel(weights, means, variances,
                    log_likelihood_trace=trace, n_iterations=iteration)


def gmm_score(x: np.ndarray, model: GmmModel) -> float | np.ndarray:
    """Negative log-likelihood of one vector (D,) or a batch (N, D)."""
    single = x.ndim == 1
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    scores = -_logsumexp(_log_densities(batch, model), axis=1)
    return float(scores[0]) if single else scores


def anomaly_score_od_sad(
    features: FeatureMatrix, params: ActivityModelParams, model: GmmModel,
    emb: np.ndarray | None = None,
) -> float:
    """Mean embedding NLL over every (window, offset) pair of the clip.

    ``emb`` is the clip's embed_features output when the caller already
    has it.
    """
    if emb is None:
        emb = embed_features(features, params)  # (n_windows, L, D)
    flat = emb.reshape(-1, emb.shape[-1])
    return float(np.mean(gmm_score(flat, model)))


def collect_training_embeddings(
    clips_features: list[FeatureMatrix],
    params: ActivityModelParams,
    config: GmmConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Embeddings over all windows and offsets of the training clips,
    uniformly subsampled to at most max_vectors."""
    chunks = [
        embed_features(f, params).reshape(-1, params.embedding_dim)
        for f in clips_features
    ]
    pool = np.concatenate(chunks, axis=0)
    if pool.shape[0] > config.max_vectors:
        keep = rng.choice(pool.shape[0], size=config.max_vectors, replace=False)
        pool = pool[np.sort(keep)]
    return pool
