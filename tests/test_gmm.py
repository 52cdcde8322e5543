"""EM fitting and outlier scoring."""

import math

import numpy as np
import pytest

from uasd.activity import ActivityTrainConfig, embed, init_activity_model
from uasd.errors import DegenerateInputError
from uasd.features import FeatureMatrix, windows
from uasd.gmm import (
    GmmConfig,
    GmmModel,
    anomaly_score_od_sad,
    fit_gmm,
    gmm_score,
    kmeans_plusplus,
)

L = 5


def _naive_score(x, model):
    """Literal density sum, no log-sum-exp: the independent oracle."""
    total = 0.0
    for w, mu, var in zip(model.weights, model.means, model.variances):
        quad = float(np.sum((x - mu) ** 2 / var))
        norm = (2 * math.pi) ** (-len(x) / 2) / math.sqrt(float(np.prod(var)))
        total += w * norm * math.exp(-0.5 * quad)
    return -math.log(total)


class TestFitGmm:
    def test_single_component_recovers_sample_moments(self, rng):
        """M=1 EM fixed point is the sample mean and population variance."""
        x = rng.normal(3.0, 2.0, (400, 3))
        model = fit_gmm(x, GmmConfig(components=1), rng)
        np.testing.assert_allclose(model.means[0], x.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.variances[0], x.var(axis=0), atol=1e-9)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_component_recovery(self):
        """5000 points from a well-separated mixture: means within 0.1."""
        rng = np.random.default_rng(42)
        true_means = np.array([[0.0, 0.0], [5.0, 5.0]])
        data = np.concatenate(
            [rng.normal(m, 0.5, (2500, 2)) for m in true_means]
        )
        model = fit_gmm(data, GmmConfig(components=2), np.random.default_rng(0))
        direct = np.abs(model.means - true_means).mean()
        swapped = np.abs(model.means[::-1] - true_means).mean()
        assert min(direct, swapped) < 0.1

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_log_likelihood_monotone(self, seed):
        rng = np.random.default_rng(seed)
        data = np.concatenate(
            [rng.normal(c, 0.8, (300, 4)) for c in (-2.0, 0.5, 3.0)]
        )
        model = fit_gmm(data, GmmConfig(components=3), rng)
        trace = np.asarray(model.log_likelihood_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_deterministic_given_seed(self, rng):
        data = rng.normal(0, 1, (200, 3))
        a = fit_gmm(data, GmmConfig(components=2), np.random.default_rng(5))
        b = fit_gmm(data, GmmConfig(components=2), np.random.default_rng(5))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_weights_and_floors(self, rng):
        data = rng.normal(0, 1, (300, 2))
        model = fit_gmm(data, GmmConfig(components=4), rng)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.weights >= 1e-12)
        assert np.all(model.variances >= 1e-6)

    def test_too_few_vectors_rejected(self, rng):
        with pytest.raises(DegenerateInputError):
            fit_gmm(rng.normal(0, 1, (19, 2)), GmmConfig(components=2), rng)

    def test_kmeans_plusplus_spreads_centers(self, rng):
        data = np.concatenate([rng.normal(c, 0.1, (50, 2)) for c in (0.0, 10.0)])
        centers = kmeans_plusplus(data, 2, rng)
        assert abs(centers[0, 0] - centers[1, 0]) > 5.0


class TestGmmScore:
    def test_closed_form_at_mean_with_unit_variance(self):
        """M=1, x at the mean, unit variances: D/2 * ln(2*pi)."""
        d = 6
        model = GmmModel(np.array([1.0]), np.zeros((1, d)), np.ones((1, d)))
        assert gmm_score(np.zeros(d), model) == pytest.approx(
            d / 2 * math.log(2 * math.pi), abs=1e-12
        )

    def test_monotone_in_distance_from_mean(self):
        model = GmmModel(np.array([1.0]), np.zeros((1, 3)), np.ones((1, 3)))
        scores = [gmm_score(np.full(3, r), model) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_matches_naive_density_sum(self, rng):
        model = GmmModel(
            weights=np.array([0.3, 0.7]),
            means=rng.normal(0, 1, (2, 3)),
            variances=rng.uniform(0.5, 2.0, (2, 3)),
        )
        for _ in range(20):
            x = rng.normal(0, 1.5, 3)
            assert gmm_score(x, model) == pytest.approx(
                _naive_score(x, model), abs=1e-9
            )

    def test_batch_matches_single(self, rng):
        model = GmmModel(np.array([1.0]), np.zeros((1, 4)), np.ones((1, 4)))
        xs = rng.normal(0, 1, (10, 4))
        batch = gmm_score(xs, model)
        for i in range(10):
            assert batch[i] == pytest.approx(gmm_score(xs[i], model), abs=1e-12)


class TestEq8Score:
    def _setup(self, T, seed=0):
        config = ActivityTrainConfig(channels=4, blocks=1, embedding_dim=8)
        params = init_activity_model(10, config, L, seed)
        rng = np.random.default_rng(seed + 1)
        for p in params.embedder.params():
            p.value[:] = rng.normal(0, 0.2, p.shape)
        feats = FeatureMatrix(rng.normal(0, 1, (T, 10)), 1024, 512, clip_id="x")
        model = GmmModel(np.array([1.0]), np.zeros((1, 8)), np.ones((1, 8)))
        return params, feats, model

    def test_matches_explicit_double_sum(self):
        """Brute force over (window, offset) with single-window embeds."""
        params, feats, model = self._setup(T=9)
        total, count = 0.0, 0
        for w in windows(feats, L):
            emb = embed(w.data, params)
            for l in range(L):
                total += _naive_score(emb[l], model)
                count += 1
        expected = total / count
        assert anomaly_score_od_sad(feats, params, model) == pytest.approx(
            expected, abs=1e-9
        )
        assert count == (9 - L + 1) * L

    def test_single_window_reduces_to_offset_mean(self):
        params, feats, model = self._setup(T=L)
        emb = embed(windows(feats, L)[0].data, params)
        expected = float(np.mean([gmm_score(emb[l], model) for l in range(L)]))
        assert anomaly_score_od_sad(feats, params, model) == pytest.approx(
            expected, abs=1e-12
        )

    def test_constant_embedder_gives_constant_score(self):
        params, feats, model = self._setup(T=11)
        for p in params.embedder.layers[-1].params():
            p.value[:] = 0.0  # zero projection: every embedding is zero
        expected = gmm_score(np.zeros(8), model)
        for seed in (1, 2):
            other = FeatureMatrix(
                np.random.default_rng(seed).normal(0, 1, (8, 10)), 1024, 512
            )
            assert anomaly_score_od_sad(other, params, model) == pytest.approx(
                expected, abs=1e-12
            )

    def test_too_short_clip_rejected(self):
        params, feats, model = self._setup(T=3)
        with pytest.raises(DegenerateInputError):
            anomaly_score_od_sad(feats, params, model)
