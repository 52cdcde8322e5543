"""Waveform container, WAV file I/O, and SNR-controlled mixing.

WAV support is deliberately narrow: mono RIFF/WAVE, PCM 16-bit or IEEE
float 32-bit. 16-bit samples map to amplitudes via division by 32768, so
+32767 becomes 32767/32768 and the write/read round trip is exact to one
quantization step (2**-15).
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, WavFormatError

log = logging.getLogger(__name__)

_PCM16_SCALE = 32768.0
WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003


@dataclass
class AudioClip:
    """Mono waveform: float64 amplitudes in [-1, 1] plus a sample rate."""

    samples: np.ndarray
    sample_rate_hz: int = 16000
    clipped_samples: int = 0  # how many amplitudes were clamped into [-1, 1]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DegenerateInputError("AudioClip needs a nonempty 1-D sample array")
        if self.sample_rate_hz <= 0:
            raise DegenerateInputError("sample_rate_hz must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise DegenerateInputError("AudioClip samples must be finite")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def power(self) -> float:
        """Mean squared amplitude over the whole clip."""
        return float(np.mean(self.samples**2))


def clamp_amplitudes(samples: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamp into [-1, 1]; returns the clamped array and the clip count."""
    over = np.count_nonzero((samples > 1.0) | (samples < -1.0))
    if over:
        log.warning("clamped %d samples outside [-1, 1]", over)
        samples = np.clip(samples, -1.0, 1.0)
    return samples, int(over)


def read_wav(path) -> AudioClip:
    """Read a mono PCM16 or float32 WAV file, normalized to [-1, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels != 1:
        raise WavFormatError(f"{path}: {n_channels} channels, only mono is supported")

    if len(payload) % max(bits // 8, 1):
        raise WavFormatError(
            f"{path}: data chunk of {len(payload)} bytes is not a whole number "
            f"of {bits}-bit samples"
        )
    if audio_format == WAVE_FORMAT_PCM and bits == 16:
        raw = np.frombuffer(payload, dtype="<i2")
        samples = raw.astype(np.float64) / _PCM16_SCALE
    elif audio_format == WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        samples = np.clip(samples, -1.0, 1.0)
    else:
        raise WavFormatError(
            f"{path}: format tag {audio_format} / {bits}-bit is not supported"
        )
    if samples.size == 0:
        raise WavFormatError(f"{path}: empty data chunk")
    return AudioClip(samples, sample_rate_hz=int(sample_rate))


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as mono 16-bit PCM."""
    quantized = np.round(clip.samples * _PCM16_SCALE)
    quantized = np.clip(quantized, -32768, 32767).astype("<i2")
    payload = quantized.tobytes()
    byte_rate = clip.sample_rate_hz * 2
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH", 16, WAVE_FORMAT_PCM, 1, clip.sample_rate_hz, byte_rate, 2, 16
            ),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def snr_gain(signal_power: float, noise_power: float, snr_db: float) -> float:
    """Gain g so that signal vs g*noise has the requested SNR in dB."""
    if noise_power <= 0.0:
        raise DegenerateInputError("noise has zero power")
    if signal_power <= 0.0:
        raise DegenerateInputError("signal has zero power")
    return float(np.sqrt(signal_power / (noise_power * 10.0 ** (snr_db / 10.0))))


def fit_noise_length(
    noise: np.ndarray, n_samples: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Tile (with a circular offset) or crop the noise to n_samples.

    The offset/crop position is drawn from ``rng``; without one the result
    starts at sample 0, keeping the operation deterministic.
    """
    n = noise.shape[0]
    if n == n_samples:
        return noise
    if n < n_samples:
        offset = int(rng.integers(0, n)) if rng is not None else 0
        reps = int(np.ceil((n_samples + offset) / n))
        return np.tile(noise, reps)[offset : offset + n_samples]
    start = int(rng.integers(0, n - n_samples + 1)) if rng is not None else 0
    return noise[start : start + n_samples]


def mix_at_snr(
    signal: AudioClip,
    noise: AudioClip,
    snr_db: float,
    rng: np.random.Generator | None = None,
) -> AudioClip:
    """Return signal + g*noise with whole-clip powers at the requested SNR.

    Power is the mean squared amplitude over the entire clip, inactive
    sections included. Noise of a different length is tiled or cropped
    first (see fit_noise_length).
    """
    if signal.sample_rate_hz != noise.sample_rate_hz:
        raise DegenerateInputError("signal and noise sample rates differ")
    noise_samples = fit_noise_length(noise.samples, signal.n_samples, rng)
    g = snr_gain(signal.power(), float(np.mean(noise_samples**2)), snr_db)
    mixed, n_clipped = clamp_amplitudes(signal.samples + g * noise_samples)
    return AudioClip(mixed, signal.sample_rate_hz, clipped_samples=n_clipped)
