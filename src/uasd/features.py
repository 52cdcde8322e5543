"""Log-mel feature extraction, frame-level activity labels, and windows.

Frames are Hann-windowed, power-spectrum STFT columns pushed through a
triangular mel filterbank (HTK mel scale, area-normalized filters spanning
0 Hz to Nyquist) and floored natural log. No padding or centering: frame t
covers samples [t*hop, t*hop + frame_size), giving
T = floor((n_samples - frame_size)/hop) + 1 frames.

A frame is labeled active iff strictly more than half of its samples fall
inside an active interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import AudioClip
from .errors import ContractError, DegenerateInputError
from .synth import ActivityIntervals

LOG_FLOOR = 1e-10


@dataclass
class FeatureConfig:
    frame_samples: int = 1024  # 64 ms at 16 kHz
    hop_samples: int = 512  # 50% hop
    n_mels: int = 128
    window_frames: int = 5  # L consecutive frames per model input

    def validate(self) -> None:
        if self.frame_samples <= 0 or self.hop_samples <= 0:
            raise DegenerateInputError("frame and hop sizes must be positive")
        if self.n_mels < 1:
            raise DegenerateInputError("n_mels must be at least 1")
        if self.window_frames < 1:
            raise DegenerateInputError("window_frames must be at least 1")


@dataclass
class FeatureMatrix:
    """T x F log-mel frames with optional frame-aligned activity labels."""

    frames: np.ndarray
    frame_size_samples: int
    hop_samples: int
    frame_labels: np.ndarray | None = None
    clip_id: str | None = None

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ContractError("frames must be a T x F matrix")
        if not np.all(np.isfinite(self.frames)):
            raise ContractError("feature matrix contains non-finite entries")
        if self.frame_labels is not None:
            self.frame_labels = np.asarray(self.frame_labels, dtype=np.int64)
            if self.frame_labels.shape != (self.frames.shape[0],):
                raise ContractError("frame_labels length must equal T")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_bins(self) -> int:
        return self.frames.shape[1]


@dataclass
class FeatureWindow:
    """L consecutive frames starting at frame index t (0-based)."""

    data: np.ndarray  # L x F
    labels: np.ndarray | None  # length L
    origin: tuple[str | None, int]  # (clip_id, t)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int, frame_samples: int, sample_rate_hz: int
) -> tuple[np.ndarray, np.ndarray]:
    """Triangular filters on the rfft bin grid; returns (F x bins, centers).

    Filter edges are equally spaced on the HTK mel scale from 0 Hz to
    Nyquist; each triangle is scaled by 2/width so its area over Hz is 1.
    """
    nyquist = sample_rate_hz / 2.0
    mel_edges = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2)
    hz_edges = mel_to_hz(mel_edges)
    bin_freqs = np.fft.rfftfreq(frame_samples, d=1.0 / sample_rate_hz)

    bank = np.zeros((n_mels, bin_freqs.shape[0]))
    for m in range(n_mels):
        lo, center, hi = hz_edges[m], hz_edges[m + 1], hz_edges[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return bank, hz_edges[1:-1]


def frame_count(n_samples: int, frame_samples: int, hop_samples: int) -> int:
    return (n_samples - frame_samples) // hop_samples + 1


def logmel(clip: AudioClip, config: FeatureConfig) -> FeatureMatrix:
    """Power-spectrogram log-mel features, T x n_mels."""
    config.validate()
    if clip.n_samples < config.frame_samples:
        raise DegenerateInputError(
            f"clip of {clip.n_samples} samples is shorter than one "
            f"{config.frame_samples}-sample frame"
        )
    T = frame_count(clip.n_samples, config.frame_samples, config.hop_samples)
    window = 0.5 * (
        1.0 - np.cos(2.0 * np.pi * np.arange(config.frame_samples) / config.frame_samples)
    )
    starts = np.arange(T) * config.hop_samples
    framed = np.lib.stride_tricks.as_strided(
        clip.samples,
        shape=(T, config.frame_samples),
        strides=(clip.samples.strides[0] * config.hop_samples, clip.samples.strides[0]),
    )
    spectrum = np.fft.rfft(framed * window, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    bank, _ = mel_filterbank(config.n_mels, config.frame_samples, clip.sample_rate_hz)
    mel_power = power @ bank.T
    feats = np.log(np.maximum(mel_power, LOG_FLOOR))
    assert starts[-1] + config.frame_samples <= clip.n_samples
    return FeatureMatrix(feats, config.frame_samples, config.hop_samples)


def frame_labels(
    intervals: ActivityIntervals, n_samples: int, config: FeatureConfig
) -> np.ndarray:
    """Binary activity label per frame: 1 iff >50% of its samples are active."""
    intervals.validate_for_length(n_samples)
    T = frame_count(n_samples, config.frame_samples, config.hop_samples)
    labels = np.zeros(T, dtype=np.int64)
    starts = np.arange(T) * config.hop_samples
    ends = starts + config.frame_samples
    overlap = np.zeros(T, dtype=np.int64)
    for s, e in intervals.intervals:
        overlap += np.maximum(0, np.minimum(ends, e) - np.maximum(starts, s))
    labels[2 * overlap > config.frame_samples] = 1
    return labels


def attach_labels(
    features: FeatureMatrix,
    intervals: ActivityIntervals,
    n_samples: int,
    config: FeatureConfig,
) -> FeatureMatrix:
    features.frame_labels = frame_labels(intervals, n_samples, config)
    return features


def sliding_windows(features: FeatureMatrix, L: int) -> np.ndarray:
    """All stride-1 windows as one (T-L+1, L, F) array."""
    if L < 1:
        raise DegenerateInputError("window length must be at least 1")
    T = features.n_frames
    if T < L:
        raise DegenerateInputError(f"clip has {T} frames, fewer than L={L}")
    return np.lib.stride_tricks.sliding_window_view(
        features.frames, (L, features.n_bins)
    )[:, 0]


def window_labels(features: FeatureMatrix, L: int) -> np.ndarray:
    """Per-window label slices, (T-L+1, L)."""
    if features.frame_labels is None:
        raise ContractError("feature matrix has no frame labels")
    if features.n_frames < L:
        raise DegenerateInputError("fewer frames than the window length")
    return np.lib.stride_tricks.sliding_window_view(features.frame_labels, L)


def windows(features: FeatureMatrix, L: int) -> list[FeatureWindow]:
    """Materialize the T-L+1 stride-1 windows with their label slices."""
    data = sliding_windows(features, L)
    labels = window_labels(features, L) if features.frame_labels is not None else None
    return [
        FeatureWindow(
            data=data[t],
            labels=None if labels is None else labels[t],
            origin=(features.clip_id, t),
        )
        for t in range(data.shape[0])
    ]

