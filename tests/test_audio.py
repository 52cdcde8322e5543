"""WAV I/O and SNR mixing."""

import struct

import numpy as np
import pytest

from uasd.audio import (
    AudioClip,
    fit_noise_length,
    mix_at_snr,
    read_wav,
    snr_gain,
    write_wav,
)
from uasd.errors import DegenerateInputError, WavFormatError


def _pcm16_wav_bytes(values, sample_rate=16000, channels=1):
    payload = struct.pack(f"<{len(values)}h", *values)
    return b"".join(
        [
            b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
            b"fmt ", struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                                 sample_rate * 2 * channels, 2 * channels, 16),
            b"data", struct.pack("<I", len(payload)), payload,
        ]
    )


class TestReadWav:
    def test_pcm16_normalization_positive_full_scale(self, tmp_path):
        """PCM value +32767 maps to 32767/32768."""
        path = tmp_path / "x.wav"
        path.write_bytes(_pcm16_wav_bytes([32767, -32768, 0]))
        clip = read_wav(path)
        assert clip.samples[0] == 32767 / 32768
        assert clip.samples[1] == -1.0
        assert clip.samples[2] == 0.0

    def test_sample_rate_preserved(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_pcm16_wav_bytes([0, 0], sample_rate=22050))
        assert read_wav(path).sample_rate_hz == 22050

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"NOTAWAVEFILE" + b"\x00" * 64)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_multichannel_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(_pcm16_wav_bytes([0, 0, 0, 0], channels=2))
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_float64_format_rejected(self, tmp_path):
        payload = struct.pack("<2d", 0.0, 0.5)
        blob = b"".join(
            [b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
             b"fmt ", struct.pack("<IHHIIHH", 16, 3, 1, 16000, 16000 * 8, 8, 64),
             b"data", struct.pack("<I", len(payload)), payload]
        )
        path = tmp_path / "f64.wav"
        path.write_bytes(blob)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_float32_supported(self, tmp_path):
        payload = struct.pack("<3f", -0.25, 0.0, 0.75)
        blob = b"".join(
            [b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
             b"fmt ", struct.pack("<IHHIIHH", 16, 3, 1, 16000, 16000 * 4, 4, 32),
             b"data", struct.pack("<I", len(payload)), payload]
        )
        path = tmp_path / "f32.wav"
        path.write_bytes(blob)
        clip = read_wav(path)
        np.testing.assert_allclose(clip.samples, [-0.25, 0.0, 0.75], atol=1e-7)

    def test_pcm16_partial_sample_rejected(self, tmp_path):
        payload = struct.pack("<2h", 1, 2) + b"\x03"  # 5 bytes
        blob = b"".join(
            [b"RIFF", struct.pack("<I", 36 + len(payload) + 1), b"WAVE",
             b"fmt ", struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000 * 2, 2, 16),
             b"data", struct.pack("<I", len(payload)), payload, b"\x00"]
        )
        path = tmp_path / "odd.wav"
        path.write_bytes(blob)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_float32_partial_sample_rejected(self, tmp_path):
        payload = struct.pack("<2f", 0.25, -0.5) + b"\x00\x00"  # 10 bytes
        blob = b"".join(
            [b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVE",
             b"fmt ", struct.pack("<IHHIIHH", 16, 3, 1, 16000, 16000 * 4, 4, 32),
             b"data", struct.pack("<I", len(payload)), payload]
        )
        path = tmp_path / "f32odd.wav"
        path.write_bytes(blob)
        with pytest.raises(WavFormatError):
            read_wav(path)


class TestWriteWav:
    def test_silent_second_is_16000_zero_samples(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(AudioClip(np.zeros(16000)), path)
        blob = path.read_bytes()
        payload = blob[44:]
        assert len(payload) == 16000 * 2
        assert payload == b"\x00" * len(payload)

    def test_header_sample_rate_field(self, tmp_path):
        path = tmp_path / "rate.wav"
        write_wav(AudioClip(np.zeros(100), sample_rate_hz=16000), path)
        (rate,) = struct.unpack_from("<I", path.read_bytes(), 24)
        assert rate == 16000

    def test_round_trip_quantization_bound(self, tmp_path, rng):
        """Round trip matches direct quantization and stays within 2**-15."""
        samples = rng.uniform(-1.0, 1.0, 4096)
        clip = AudioClip(samples)
        path = tmp_path / "rt.wav"
        write_wav(clip, path)
        back = read_wav(path).samples
        expected = np.clip(np.round(samples * 32768), -32768, 32767) / 32768
        np.testing.assert_array_equal(back, expected)
        assert np.max(np.abs(back - samples)) <= 2.0**-15


class TestMixAtSnr:
    def _tone(self, freq, rms, n=16000, sr=16000):
        t = np.arange(n) / sr
        x = np.sin(2 * np.pi * freq * t)
        return AudioClip(x * rms / np.sqrt(np.mean(x**2)), sr)

    def test_equal_power_zero_db_gain_is_one(self):
        assert snr_gain(0.01, 0.01, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_gain_at_6_db(self):
        # sqrt(P/(P*10^0.6)) = 10^(-0.3)
        assert snr_gain(0.01, 0.01, 6.0) == pytest.approx(10 ** -0.3, rel=1e-12)

    def test_gain_at_minus_12_db(self):
        assert snr_gain(0.01, 0.01, -12.0) == pytest.approx(10 ** 0.6, rel=1e-12)

    def test_mix_is_signal_plus_scaled_noise(self):
        signal = self._tone(440.0, 0.1)
        noise = self._tone(997.0, 0.05)
        mixed = mix_at_snr(signal, noise, 3.0)
        g = snr_gain(signal.power(), noise.power(), 3.0)
        np.testing.assert_allclose(
            mixed.samples, signal.samples + g * noise.samples, atol=1e-15
        )

    def test_achieved_snr_property(self, rng):
        """10*log10(P_signal / P_(g*noise)) hits any target in [-24, 24]."""
        for _ in range(25):
            signal = AudioClip(rng.normal(0, 0.08, 8000))
            noise = AudioClip(rng.normal(0, 0.05, 8000))
            target = rng.uniform(-24.0, 24.0)
            g = snr_gain(signal.power(), noise.power(), target)
            achieved = 10 * np.log10(
                signal.power() / np.mean((g * noise.samples) ** 2)
            )
            assert abs(achieved - target) < 1e-9

    def test_zero_power_noise_rejected(self):
        signal = self._tone(440.0, 0.1)
        with pytest.raises(DegenerateInputError):
            mix_at_snr(signal, AudioClip(np.zeros(16000)), 0.0)

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(DegenerateInputError):
            mix_at_snr(
                AudioClip(np.ones(100) * 0.1, 16000),
                AudioClip(np.ones(100) * 0.1, 8000),
                0.0,
            )

    def test_short_noise_is_tiled(self, rng):
        noise = rng.normal(0, 0.1, 1000)
        fitted = fit_noise_length(noise, 2500)
        np.testing.assert_array_equal(fitted[:1000], noise)
        np.testing.assert_array_equal(fitted[1000:2000], noise)
        assert fitted.shape == (2500,)

    def test_long_noise_is_cropped_deterministically_with_rng(self, rng):
        noise = rng.normal(0, 0.1, 5000)
        a = fit_noise_length(noise, 1200, np.random.default_rng(9))
        b = fit_noise_length(noise, 1200, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1200,)


class TestAudioClip:
    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            AudioClip(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateInputError):
            AudioClip(np.array([0.0, np.nan]))
