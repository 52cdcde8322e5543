"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion. The end-to-end criteria (5-7) drive the full pipeline on the
desk-scale experiment configured in conftest.DESK_OVERRIDES, three seeds.
"""

import math
import time

import numpy as np
import pytest

from uasd.activity import (
    ActivityTrainConfig,
    activity_trace,
    anomaly_score_sad,
    classify,
    clip_windows,
    detection_loss,
    embed,
    init_activity_model,
    overall_cost,
    trace_accuracy,
)
from uasd.errors import DegenerateInputError
from uasd.evaluation import auc, fit_standardizer, read_score_csv, standardize
from uasd.features import FeatureMatrix, windows
from uasd.gmm import GmmConfig, GmmModel, anomaly_score_od_sad, fit_gmm, gmm_score
from uasd.nn import (
    BatchNorm,
    Conv2d,
    Dense,
    FramewiseDense,
    ReLU,
    Residual,
    Sequential,
    cross_entropy_from_logits,
    grad_check,
)

from conftest import DESK_SEEDS, MICRO_OVERRIDES, make_experiment

L = 5


def _report(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}", flush=True)


def _mean_auc(runs, method, snr):
    return float(np.mean([rep.auc_for(method, snr) for _, rep in runs.values()]))


class TestCriterion1Gradients:
    def test_gradient_correctness_all_layer_types(self):
        """Central-difference checks: 1e-5 (1e-6 for smooth nets), 3 seeds."""
        t0 = time.perf_counter()
        worst_smooth, worst_general = 0.0, 0.0
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            check_rng = np.random.default_rng(seed + 100)

            smooth_cases = [
                (Sequential([Dense(7, 5, rng=rng), Dense(5, 3, rng=rng)]),
                 rng.normal(0, 1, (6, 7)), None),
                (Sequential([Conv2d(2, 3, rng=rng)]),
                 rng.normal(0, 1, (2, 4, 5, 2)), None),
                (Sequential([FramewiseDense(3, 6, 4, rng=rng)]),
                 rng.normal(0, 1, (2, 4, 6, 3)), None),
            ]
            labels = rng.integers(0, 3, 8)

            def ce_loss(logits):
                losses, dlogits = cross_entropy_from_logits(logits, labels)
                return float(losses.sum()), dlogits

            smooth_cases.append(
                (Sequential([Dense(6, 3, rng=rng)]), rng.normal(0, 1, (8, 6)),
                 ce_loss)
            )
            for net, x, loss_fn in smooth_cases:
                err = grad_check(net, x, loss_fn=loss_fn, rng=check_rng)
                worst_smooth = max(worst_smooth, err)

            general_cases = [
                Sequential([Conv2d(2, 3, rng=rng), ReLU(), Conv2d(3, 2, rng=rng)]),
                Sequential([BatchNorm(3)]),
                Sequential([Residual(Sequential([Conv2d(2, 2, rng=rng), ReLU(),
                                                 Conv2d(2, 2, rng=rng)]))]),
                Sequential([Dense(6, 4, rng=rng), BatchNorm(4), ReLU(),
                            Dense(4, 2, rng=rng)]),
            ]
            shapes = [(2, 3, 4, 2), (3, 4, 5, 3), (2, 3, 4, 2), (8, 6)]
            for net, shape in zip(general_cases, shapes):
                x = np.random.default_rng(seed + 7).normal(0, 1, shape)
                err = grad_check(net, x, rng=check_rng)
                worst_general = max(worst_general, err)

        elapsed = time.perf_counter() - t0
        assert worst_smooth < 1e-6
        assert worst_general < 1e-5
        assert elapsed < 30.0
        _report(
            "criterion 1",
            f"gradients: smooth {worst_smooth:.2e} < 1e-6, "
            f"general {worst_general:.2e} < 1e-5, {elapsed:.1f}s < 30s",
        )


class TestCriterion2FormulaOracles:
    def _random_model(self, F=10, seed=0):
        config = ActivityTrainConfig(channels=4, blocks=1, embedding_dim=8)
        params = init_activity_model(F, config, L, seed)
        rng = np.random.default_rng(seed + 50)
        params.classifier.value[:] = rng.normal(0, 0.4, (2, 8))
        return params

    def _features(self, T, F=10, seed=0, clip_id="c"):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, T)
        return FeatureMatrix(rng.normal(0, 1, (T, F)), 1024, 512,
                             frame_labels=labels, clip_id=clip_id)

    def test_formula_oracles_match_brute_force(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        params = self._random_model()

        # window detection error: -sum_l log(posterior[label])
        worst = 0.0
        for seed in range(5):
            feats = self._features(T=9, seed=seed)
            for w in windows(feats, L):
                post = classify(embed(w.data, params), params.classifier)
                brute = -sum(math.log(post[l, w.labels[l]]) for l in range(L))
                worst = max(worst, abs(detection_loss(post, w.labels) - brute))
        assert worst < 1e-12

        # training cost: mean over clips of per-clip mean window error
        clips = [self._features(T=7 + k, seed=k, clip_id=f"c{k}") for k in range(3)]
        brute_cost = np.mean(
            [
                np.mean(
                    [
                        detection_loss(
                            classify(embed(w.data, params), params.classifier),
                            w.labels,
                        )
                        for w in windows(f, L)
                    ]
                )
                for f in clips
            ]
        )
        cost = overall_cost(
            [clip_windows(f, L, need_labels=True) for f in clips], params
        )
        assert abs(cost - brute_cost) < 1e-12

        # clip anomaly score: mean window error
        feats = self._features(T=11, seed=9)
        brute_clip = np.mean(
            [
                detection_loss(
                    classify(embed(w.data, params), params.classifier), w.labels
                )
                for w in windows(feats, L)
            ]
        )
        assert abs(anomaly_score_sad(feats, params) - brute_clip) < 1e-12

        # outlier score: double sum over windows and offsets
        gmm = GmmModel(np.array([0.4, 0.6]), rng.normal(0, 1, (2, 8)),
                       rng.uniform(0.5, 2.0, (2, 8)))
        total, count = 0.0, 0
        for w in windows(feats, L):
            emb = embed(w.data, params)
            for l in range(L):
                total += gmm_score(emb[l], gmm)
                count += 1
        brute_od = total / count
        assert abs(anomaly_score_od_sad(feats, params, gmm) - brute_od) < 1e-12

        # standardization: (s - mean) / sqrt(popvar + eps)
        scores = rng.normal(2.0, 1.5, 64).tolist()
        stats = fit_standardizer(scores, epsilon=3.0)
        mu = sum(scores) / len(scores)
        var = sum((s - mu) ** 2 for s in scores) / len(scores)
        for s in (0.0, 1.7, 9.9):
            brute_std = (s - mu) / math.sqrt(var + 3.0)
            assert abs(standardize(s, stats) - brute_std) < 1e-12

        # AUC: exact pair counting
        for trial in range(3):
            trng = np.random.default_rng(trial)
            normal = trng.normal(0, 1, 50)
            anomalous = np.round(trng.normal(0.4, 1, 50), 1)
            wins = sum(
                1.0 if a > n else 0.5 if a == n else 0.0
                for a in anomalous
                for n in normal
            )
            assert auc(normal, anomalous) == wins / 2500.0

        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        _report("criterion 2",
                f"window/cost/clip/outlier scores, standardization within "
                f"1e-12 of brute force, AUC exact, {elapsed:.1f}s < 10s")


class TestCriterion3EmBehavior:
    def test_em_monotone_and_recovers_known_mixture(self):
        t0 = time.perf_counter()
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            data = np.concatenate(
                [rng.normal(c, 0.7, (400, 4)) for c in (-2.0, 1.0, 4.0)]
            )
            model = fit_gmm(data, GmmConfig(components=3), rng)
            trace = np.asarray(model.log_likelihood_trace)
            assert np.all(np.diff(trace) >= -1e-9)

        rng = np.random.default_rng(7)
        true_means = np.array([[0.0, 0.0], [5.0, 5.0]])
        data = np.concatenate([rng.normal(m, 0.5, (2500, 2)) for m in true_means])
        model = fit_gmm(data, GmmConfig(components=2), np.random.default_rng(1))
        err = min(
            np.abs(model.means - true_means).mean(),
            np.abs(model.means[::-1] - true_means).mean(),
        )
        assert err < 0.1

        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        _report("criterion 3",
                f"every EM trace monotone (1e-9), 2-component means within "
                f"{err:.3f} < 0.1, {elapsed:.1f}s < 30s")


class TestCriterion4SpotValues:
    def test_symmetric_classifier_and_standardization_constants(self):
        params = init_activity_model(
            12, ActivityTrainConfig(channels=4, blocks=1, embedding_dim=8), L, 0
        )
        assert np.array_equal(params.w1, params.w2)  # forced symmetric
        rng = np.random.default_rng(4)
        feats = FeatureMatrix(rng.normal(0, 1, (17, 12)), 1024, 512,
                              frame_labels=rng.integers(0, 2, 17), clip_id="c")
        score = anomaly_score_sad(feats, params)
        assert abs(score - 5 * math.log(2.0)) < 1e-9

        stats = fit_standardizer([5.0, 5.0], epsilon=1000.0)
        value = standardize(5.0 + 10.0, stats)
        assert abs(value - 10.0 / math.sqrt(1000.0)) < 1e-9
        _report("criterion 4",
                f"symmetric-classifier score {score:.10f} = 5*ln2, "
                f"standardize(mu+10; 0, 1000) = {value:.5f}")


class TestCriterion5EndToEnd:
    def test_detection_quality_and_runtime(self, desk_runs):
        runs, elapsed = desk_runs

        sad_6 = _mean_auc(runs, "sad", 6.0)
        assert sad_6 >= 0.75  # (a)

        method_6 = {m: _mean_auc(runs, m, 6.0)
                    for m in ("ae_labeled", "sad", "ae_unlabeled", "od_sad")}
        assert all(v > 0.60 for v in method_6.values())  # (b)

        drops = {}
        for m in ("sad", "ae_labeled", "ae_unlabeled"):
            drops[m] = _mean_auc(runs, m, 6.0) - _mean_auc(runs, m, -12.0)
            assert drops[m] >= 0.05  # (c)

        accuracies = []
        for _, (exp, _) in runs.items():
            params = exp.load("sad")
            for entry in exp.manifest().split_entries("test"):
                if entry.condition == "normal" and entry.snr_db == 6.0:
                    feats = exp.features_for(entry, want_labels=True)
                    accuracies.append(
                        trace_accuracy(activity_trace(feats, params),
                                       feats.frame_labels)
                    )
        trace_acc = float(np.mean(accuracies))
        assert trace_acc >= 0.90  # (d)

        assert elapsed < 600.0
        _report(
            "criterion 5",
            f"SAD@6dB {sad_6:.3f} >= 0.75; methods@6dB "
            + ", ".join(f"{m}={v:.3f}" for m, v in method_6.items())
            + " all > 0.60; 6dB-(-12dB) drops "
            + ", ".join(f"{m}={v:.3f}" for m, v in drops.items())
            + f" all >= 0.05; trace accuracy {trace_acc:.3f} >= 0.90; "
            f"runtime {elapsed:.0f}s < 600s",
        )

    def test_anomalous_clips_score_above_normal_ones(self, desk_runs):
        """Mean anomaly score ordering at 6 dB for every method."""
        runs, _ = desk_runs
        for method in ("sad", "od_sad", "ae_labeled", "ae_unlabeled"):
            gaps = []
            for _, (exp, _) in runs.items():
                records = [
                    r for r in read_score_csv(exp.paths.scores_csv(method, "test"))
                    if r.snr_db == 6.0
                ]
                anomalous = np.mean([r.raw_score for r in records
                                     if r.condition == "anomalous"])
                normal = np.mean([r.raw_score for r in records
                                  if r.condition == "normal"])
                gaps.append(anomalous - normal)
            assert np.mean(gaps) > 0.0, method


class TestCriterion6Ensembles:
    def test_ensembles_track_their_best_member(self, desk_runs):
        runs, _ = desk_runs
        details = []
        for name, members in (
            ("ensemble_labeled", ("ae_labeled", "sad")),
            ("ensemble_unlabeled", ("ae_unlabeled", "od_sad")),
        ):
            for snr in (6.0, 0.0):
                ens = _mean_auc(runs, name, snr)
                best = max(_mean_auc(runs, m, snr) for m in members)
                assert ens >= best - 0.05, (name, snr)
                details.append(f"{name}@{snr:g}dB {ens:.3f} vs best {best:.3f}")
        _report("criterion 6", "; ".join(details))


class TestCriterion7Determinism:
    def test_repeated_pipeline_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for run in ("a", "b"):
            exp = make_experiment(tmp_path / run, MICRO_OVERRIDES, seed=21)
            exp.run_all()
            per_run = {}
            for method in ("sad", "od_sad", "ae_labeled", "ae_unlabeled"):
                for tag in ("train", "test"):
                    per_run[f"{method}_{tag}"] = exp.paths.scores_csv(
                        method, tag
                    ).read_bytes()
            per_run["report"] = exp.paths.report_json.read_bytes()
            per_run["manifest"] = exp.paths.manifest.read_bytes()
            outputs.append(per_run)
        mismatched = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
        assert not mismatched
        _report("criterion 7",
                f"{len(outputs[0])} artifacts byte-identical across two runs")
