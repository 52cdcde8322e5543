"""Machine-activity detection model and the anomaly score built on it.

The model is a residual-CNN embedder f that maps an L-frame log-mel
window to one embedding per frame, plus a bias-free two-class linear
softmax classifier g = softmax([w1.x, w2.x]) estimating per-frame
activity posteriors. The detection error of a window is the cross
entropy between posteriors and activity labels summed over its L frames;
a clip's anomaly score is that error averaged over all stride-1 windows.
Training minimizes the same error averaged uniformly over clips and,
within each clip, uniformly over window positions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusManifest
from .errors import ContractError, DegenerateInputError
from .features import FeatureConfig, FeatureMatrix, sliding_windows, window_labels
from .nn import (
    Adam,
    Parameter,
    Sequential,
    cross_entropy_from_logits,
    softmax,
)
from .nn.netspec import build_network
from .seeding import rng_for

log = logging.getLogger(__name__)

_EVAL_BATCH = 128


@dataclass
class ActivityTrainConfig:
    epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 64
    channels: int = 32
    blocks: int = 3
    embedding_dim: int = 64
    windows_per_epoch: int = 0  # 0 = one pass over every window
    log_cost_every: int = 1  # exact training-cost evaluations; 0 disables


def embedder_netspec(
    n_mels: int, channels: int, blocks: int, embedding_dim: int
) -> list[dict]:
    """Input conv, `blocks` residual blocks, shared per-frame projection."""
    conv = {"type": "conv2d", "in": channels, "out": channels, "kernel": 3,
            "stride": 1, "pad": 1, "bias": True}
    specs: list[dict] = [
        {"type": "conv2d", "in": 1, "out": channels, "kernel": 3, "stride": 1,
         "pad": 1, "bias": True},
        {"type": "relu"},
    ]
    specs += [{"type": "residual", "inner": [conv, {"type": "relu"}, conv]}
              for _ in range(blocks)]
    specs.append({"type": "framewise_dense", "channels": channels,
                  "width": n_mels, "out": embedding_dim})
    return specs


@dataclass
class ActivityModelParams:
    """Embedder f plus the classifier's two weight vectors w1, w2."""

    embedder: Sequential
    classifier: Parameter  # (2, D); row 0 scores "inactive", row 1 "active"
    netspec: list[dict]
    window_frames: int
    embedding_dim: int

    @property
    def w1(self) -> np.ndarray:
        return self.classifier.value[0]

    @property
    def w2(self) -> np.ndarray:
        return self.classifier.value[1]


def init_activity_model(
    n_mels: int, config: ActivityTrainConfig, window_frames: int, seed: int
) -> ActivityModelParams:
    """Fresh model; classifier starts at zero, so posteriors start at
    exactly [0.5, 0.5] and the initial cost per window is L*ln(2)."""
    spec = embedder_netspec(n_mels, config.channels, config.blocks,
                            config.embedding_dim)
    embedder = build_network(spec, rng_for(seed, "init"))
    classifier = Parameter(np.zeros((2, config.embedding_dim)), "classifier")
    return ActivityModelParams(embedder, classifier, spec, window_frames,
                               config.embedding_dim)


def embed(window_data: np.ndarray, params: ActivityModelParams) -> np.ndarray:
    """Embed one (L, F) window or a batch (n, L, F); eval mode."""
    single = window_data.ndim == 2
    batch = window_data[None] if single else window_data
    if batch.ndim != 3 or batch.shape[1] != params.window_frames:
        raise ContractError(
            f"expected windows of {params.window_frames} frames, got "
            f"{window_data.shape}"
        )
    out = params.embedder.forward(batch[..., None], train=False)
    return out[0] if single else out


def classify(embeddings: np.ndarray, classifier: Parameter | np.ndarray) -> np.ndarray:
    """Per-frame activity posteriors softmax([w1.x, w2.x]); no bias terms."""
    w = classifier.value if isinstance(classifier, Parameter) else classifier
    if embeddings.shape[-1] != w.shape[1]:
        raise ContractError("embedding dimension does not match the classifier")
    return softmax(embeddings @ w.T)


def detection_loss(posteriors: np.ndarray, labels: np.ndarray) -> float:
    """Cross entropy of a window: -sum_l log(posterior_l[label_l])."""
    labels = np.asarray(labels, dtype=np.int64)
    if posteriors.shape[0] != labels.shape[0]:
        raise ContractError("posterior/label length mismatch")
    return float(-np.sum(np.log(posteriors[np.arange(labels.shape[0]), labels])))


def embed_windows(
    windows_batch: np.ndarray, params: ActivityModelParams
) -> np.ndarray:
    """Eval-mode embeddings of a (n, L, F) window batch, chunked."""
    n = windows_batch.shape[0]
    out = np.empty((n, params.window_frames, params.embedding_dim))
    for lo in range(0, n, _EVAL_BATCH):
        hi = min(lo + _EVAL_BATCH, n)
        out[lo:hi] = params.embedder.forward(
            windows_batch[lo:hi, ..., None], train=False
        )
    return out


def window_losses_from_embeddings(
    embeddings: np.ndarray, labels_batch: np.ndarray,
    classifier: Parameter | np.ndarray,
) -> np.ndarray:
    """Per-window detection errors given (n, L, D) embeddings."""
    w = classifier.value if isinstance(classifier, Parameter) else classifier
    n, L, _ = embeddings.shape
    logits = embeddings @ w.T
    losses, _ = cross_entropy_from_logits(
        logits.reshape(n * L, 2), np.asarray(labels_batch).reshape(n * L)
    )
    return losses.reshape(n, L).sum(axis=1)


def window_losses(
    windows_batch: np.ndarray, labels_batch: np.ndarray, params: ActivityModelParams
) -> np.ndarray:
    """Eval-mode per-window detection errors for a (n, L, F) batch."""
    emb = embed_windows(windows_batch, params)
    return window_losses_from_embeddings(emb, labels_batch, params.classifier)


@dataclass
class ClipWindows:
    """Window/label arrays of one clip, the training and scoring unit."""

    clip_id: str
    data: np.ndarray  # (n_windows, L, F)
    labels: np.ndarray | None  # (n_windows, L)


def clip_windows(features: FeatureMatrix, L: int, need_labels: bool) -> ClipWindows:
    data = sliding_windows(features, L)
    labels = None
    if features.frame_labels is not None:
        labels = window_labels(features, L)
    elif need_labels:
        raise ContractError(
            "activity labels are required here; use the outlier-detection "
            "score for label-free inference"
        )
    return ClipWindows(features.clip_id or "", data, labels)


@dataclass
class TrainingLog:
    entries: list[dict] = field(default_factory=list)

    def append(self, **kwargs) -> None:
        self.entries.append(dict(kwargs))

    def costs(self) -> list[float]:
        return [e["cost"] for e in self.entries if "cost" in e]


def overall_cost(clips: list[ClipWindows], params: ActivityModelParams) -> float:
    """Mean over clips of the per-clip mean window detection error."""
    per_clip = []
    for clip in clips:
        losses = window_losses(clip.data, clip.labels, params)
        per_clip.append(float(losses.mean()))
    return float(np.mean(per_clip))


def train_activity_model(
    clips: list[ClipWindows],
    config: ActivityTrainConfig,
    n_mels: int,
    window_frames: int,
    seed: int,
) -> tuple[ActivityModelParams, TrainingLog]:
    """Train f and g on labeled normal clips.

    Batches draw (clip, window) pairs uniformly: a clip is picked
    uniformly, then one of its window positions uniformly, which makes the
    expected batch loss equal the per-clip-balanced training cost. An
    epoch consumes one pass worth of windows (or windows_per_epoch when
    set); after each epoch the exact training cost is evaluated in eval
    mode and logged.
    """
    usable = [c for c in clips if c.data.shape[0] >= 1]
    for c in clips:
        if c.data.shape[0] < 1:
            log.warning("skipping clip %s: no full window", c.clip_id)
    if not usable:
        raise DegenerateInputError("no clip provides a full feature window")
    for c in usable:
        if c.labels is None:
            raise ContractError(f"clip {c.clip_id}: training requires labels")

    params = init_activity_model(n_mels, config, window_frames, seed)
    optimizer = Adam(params.embedder.params() + [params.classifier], lr=config.lr)
    rng = rng_for(seed, "batching")

    counts = np.array([c.data.shape[0] for c in usable])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    all_windows = np.concatenate([c.data for c in usable], axis=0)
    all_labels = np.concatenate([c.labels for c in usable], axis=0)
    total_windows = int(counts.sum())

    per_epoch = config.windows_per_epoch or total_windows
    steps = max(1, math.ceil(per_epoch / config.batch_size))
    training_log = TrainingLog()

    for epoch in range(config.epochs):
        batch_losses = []
        for _ in range(steps):
            clip_idx = rng.integers(0, len(usable), size=config.batch_size)
            t = rng.integers(0, counts[clip_idx])
            rows = offsets[clip_idx] + t
            batch = all_windows[rows]
            labels = all_labels[rows].reshape(-1)

            optimizer.zero_grad()
            emb = params.embedder.forward(batch[..., None], train=True)
            n, L, D = emb.shape
            flat = emb.reshape(n * L, D)
            logits = flat @ params.classifier.value.T
            losses, dlogits = cross_entropy_from_logits(logits, labels)
            dlogits /= n  # objective: mean over windows of the L-frame sum
            params.classifier.grad += dlogits.T @ flat
            demb = (dlogits @ params.classifier.value).reshape(n, L, D)
            params.embedder.backward(demb)
            optimizer.step()
            batch_losses.append(float(losses.sum() / n))

        entry = {"epoch": epoch, "batch_mean_loss": float(np.mean(batch_losses))}
        if config.log_cost_every and (epoch + 1) % config.log_cost_every == 0:
            entry["cost"] = overall_cost(usable, params)
        training_log.append(**entry)
    return params, training_log


def anomaly_score_sad(
    features: FeatureMatrix, params: ActivityModelParams,
    emb: np.ndarray | None = None,
) -> float:
    """Detection-error anomaly score: mean window loss over the clip.

    Requires ground-truth frame labels on the feature matrix. ``emb`` is
    the clip's embed_features output when the caller already has it.
    """
    labels = window_labels(features, params.window_frames)
    if emb is None:
        emb = embed_features(features, params)
    return float(window_losses_from_embeddings(emb, labels, params.classifier).mean())


def embed_features(features: FeatureMatrix, params: ActivityModelParams) -> np.ndarray:
    """Embeddings of every window of a clip, (n_windows, L, D); eval mode."""
    return embed_windows(sliding_windows(features, params.window_frames), params)


def activity_trace(
    features: FeatureMatrix, params: ActivityModelParams
) -> np.ndarray:
    """Per-window activity posteriors as rows (t, l, p_active).

    t is the 0-based start frame of the window, l the 0-based offset
    within it; one row per (window, offset) pair.
    """
    emb = embed_features(features, params)
    p_active = classify(emb, params.classifier)[..., 1]
    n, L = p_active.shape
    t_idx = np.repeat(np.arange(n), L)
    l_idx = np.tile(np.arange(L), n)
    return np.column_stack([t_idx, l_idx, p_active.reshape(-1)])


def trace_accuracy(trace: np.ndarray, frame_labels: np.ndarray,
                   threshold: float = 0.5) -> float:
    """Fraction of trace rows whose thresholded posterior matches the
    ground-truth label of frame t+l."""
    frames = trace[:, 0].astype(int) + trace[:, 1].astype(int)
    predicted = trace[:, 2] > threshold
    return float(np.mean(predicted == (frame_labels[frames] == 1)))


def build_training_clips(
    manifest: CorpusManifest, feature_config: FeatureConfig, load_features
) -> list[ClipWindows]:
    """Windows of every train-split clip; load_features(entry) supplies a
    labeled FeatureMatrix (injected so callers control caching)."""
    clips = []
    for entry in manifest.split_entries("train"):
        features = load_features(entry)
        if features.n_frames < feature_config.window_frames:
            log.warning("skipping %s: %d frames < L=%d", entry.clip_id,
                        features.n_frames, feature_config.window_frames)
            continue
        clips.append(clip_windows(features, feature_config.window_frames,
                                  need_labels=True))
    if not clips:
        raise DegenerateInputError("every training clip was too short")
    return clips
