"""Log-mel extraction, frame labels, and window slicing."""

import numpy as np
import pytest

from uasd.audio import AudioClip
from uasd.errors import ContractError, DegenerateInputError
from uasd.features import (
    LOG_FLOOR,
    FeatureConfig,
    FeatureMatrix,
    frame_count,
    frame_labels,
    logmel,
    mel_filterbank,
    sliding_windows,
    window_labels,
    windows,
)
from uasd.synth import ActivityIntervals

CFG = FeatureConfig(frame_samples=1024, hop_samples=512, n_mels=128)


class TestLogmel:
    def test_frame_count_formula(self):
        """4 s at 16 kHz, frame 1024, hop 512 -> 124 frames."""
        clip = AudioClip(np.zeros(64000))
        feats = logmel(clip, CFG)
        assert feats.n_frames == (64000 - 1024) // 512 + 1 == 124
        assert feats.n_bins == 128

    def test_silence_hits_the_log_floor(self):
        feats = logmel(AudioClip(np.zeros(4096)), CFG)
        np.testing.assert_array_equal(feats.frames, np.log(LOG_FLOOR))

    def test_pure_tone_lands_in_nearest_mel_bin(self):
        """Time-averaged features of a 1 kHz sine peak at the mel filter
        whose center frequency is closest to 1 kHz."""
        t = np.arange(16000) / 16000
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000.0 * t))
        feats = logmel(clip, CFG)
        observed = int(np.argmax(feats.frames.mean(axis=0)))
        _, centers = mel_filterbank(CFG.n_mels, CFG.frame_samples, 16000)
        expected = int(np.argmin(np.abs(centers - 1000.0)))
        assert observed == expected

    def test_scale_covariance_in_log_domain(self, rng):
        """Scaling the waveform by c shifts features above the floor by
        exactly 2*ln(c)."""
        samples = rng.normal(0, 0.05, 16000)
        c = 3.7
        base = logmel(AudioClip(samples), CFG).frames
        scaled = logmel(AudioClip(np.clip(c * samples, -1, 1)), CFG).frames
        mask = (base > np.log(LOG_FLOOR) + 1.0) & (scaled > np.log(LOG_FLOOR) + 1.0)
        assert mask.mean() > 0.5
        np.testing.assert_allclose(
            (scaled - base)[mask], 2.0 * np.log(c), atol=1e-9
        )

    def test_total_power_grows_linearly_with_length(self, rng):
        """White-noise mel power sums scale linearly in clip length."""
        lengths = [(k + 1) * 8000 for k in range(10)]
        totals = []
        for n in lengths:
            clip = AudioClip(rng.normal(0, 0.05, n))
            totals.append(np.exp(logmel(clip, CFG).frames).sum())
        x = np.asarray(lengths, dtype=float)
        y = np.asarray(totals)
        slope, intercept = np.polyfit(x, y, 1)
        residuals = y - (slope * x + intercept)
        r2 = 1.0 - residuals.var() / y.var()
        assert r2 > 0.99

    def test_short_clip_rejected(self):
        with pytest.raises(DegenerateInputError):
            logmel(AudioClip(np.zeros(512)), CFG)

    def test_deterministic(self, rng):
        samples = rng.normal(0, 0.05, 8000)
        a = logmel(AudioClip(samples), CFG).frames
        b = logmel(AudioClip(samples), CFG).frames
        np.testing.assert_array_equal(a, b)


class TestMelFilterbank:
    def test_area_normalization(self):
        """Each triangle integrates to ~1 over Hz."""
        bank, _ = mel_filterbank(64, 1024, 16000)
        df = 16000 / 1024
        areas = bank.sum(axis=1) * df
        # Coarse bin gridding distorts narrow low-frequency triangles.
        assert np.all(areas[8:] > 0.7) and np.all(areas[8:] < 1.3)

    def test_every_filter_is_nonempty(self):
        bank, _ = mel_filterbank(128, 1024, 16000)
        assert np.all(bank.sum(axis=1) > 0)


class TestFrameLabels:
    def test_full_coverage_all_active(self):
        labels = frame_labels(ActivityIntervals([(0, 4096)]), 4096, CFG)
        assert labels.tolist() == [1] * frame_count(4096, 1024, 512)

    def test_empty_intervals_all_inactive(self):
        labels = frame_labels(ActivityIntervals([]), 4096, CFG)
        assert labels.tolist() == [0] * frame_count(4096, 1024, 512)

    def test_exact_half_overlap_is_inactive(self):
        """Covering exactly half of frame 0's samples does not activate it
        (strictly-more-than-half rule)."""
        labels = frame_labels(ActivityIntervals([(0, 512)]), 4096, CFG)
        assert labels[0] == 0

    def test_half_plus_one_is_active(self):
        labels = frame_labels(ActivityIntervals([(0, 513)]), 4096, CFG)
        assert labels[0] == 1

    def test_split_intervals_accumulate_overlap(self):
        # two disjoint spans inside frame 0 totalling 600 > 512 samples
        labels = frame_labels(
            ActivityIntervals([(0, 300), (400, 700)]), 4096, CFG
        )
        assert labels[0] == 1


class TestWindows:
    def _features(self, T, F=6, labels=True):
        frames = np.arange(T * F, dtype=float).reshape(T, F)
        lab = np.arange(T) % 2 if labels else None
        return FeatureMatrix(frames, 1024, 512, frame_labels=lab, clip_id="c0")

    def test_window_count(self):
        assert len(windows(self._features(124), 5)) == 120

    def test_single_window_when_T_equals_L(self):
        ws = windows(self._features(5), 5)
        assert len(ws) == 1
        assert ws[0].origin == ("c0", 0)

    def test_contents_match_row_slices(self):
        feats = self._features(9)
        for w in windows(feats, 4):
            t = w.origin[1]
            np.testing.assert_array_equal(w.data, feats.frames[t : t + 4])
            np.testing.assert_array_equal(w.labels, feats.frame_labels[t : t + 4])

    def test_label_slices_reconstruct_sequence(self):
        feats = self._features(11)
        ws = windows(feats, 3)
        rebuilt = [int(w.labels[0]) for w in ws] + list(ws[-1].labels[1:])
        assert rebuilt == feats.frame_labels.tolist()

    def test_too_few_frames_rejected(self):
        with pytest.raises(DegenerateInputError):
            windows(self._features(3), 5)

    def test_sliding_windows_shape(self):
        assert sliding_windows(self._features(10), 4).shape == (7, 4, 6)
        assert window_labels(self._features(10), 4).shape == (7, 4)

    def test_window_labels_requires_labels(self):
        with pytest.raises(ContractError):
            window_labels(self._features(10, labels=False), 4)

