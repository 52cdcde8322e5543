"""Experiment orchestration, config handling, and the CLI surface."""

import json
import shutil

import numpy as np
import pytest

from uasd import activity, gmm, pipeline
from uasd.cli import main as cli_main
from uasd.config import ExperimentConfig, load_config, parse_config_text
from uasd.corpus import CorpusManifest
from uasd.errors import ConfigError
from uasd.evaluation import read_score_csv
from uasd.nn import load_checkpoint

from conftest import MICRO_OVERRIDES, make_experiment


class TestConfig:
    def test_defaults_follow_the_experiment_protocol(self):
        config = ExperimentConfig()
        assert config.features.n_mels == 128
        assert config.features.frame_samples == 1024
        assert config.features.hop_samples == 512
        assert config.features.window_frames == 5
        assert config.sad.epochs == 20
        assert config.sad.channels == 32
        assert config.sad.blocks == 3
        assert config.ae.epochs == 100
        assert config.ae.hidden_dim == 128
        assert config.ae.bottleneck_dim == 8
        assert config.gmm.components == 5
        assert config.epsilon_sad == 1000.0
        assert config.epsilon_default == 0.0
        assert config.corpus.snr_list == (6.0, 0.0, -6.0, -12.0)

    def test_parse_and_override(self):
        config = parse_config_text("seed = 9\nsnr_list = 6,0\n# comment\n")
        assert config.seed == 9
        assert config.corpus.snr_list == (6.0, 0.0)
        config.apply("sad.epochs", "7")
        assert config.sad.epochs == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("bogus_key = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("sad.epochs = many\n")

    def test_hash_excludes_out_dir_and_tracks_content(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        b.out_dir = "/somewhere/else"
        assert a.content_hash() == b.content_hash()
        b.apply("seed", "123")
        assert a.content_hash() != b.content_hash()

    def test_serialize_round_trips(self):
        config = ExperimentConfig()
        config.apply("snr_list", "6,-6")
        config.apply("sad.lr", "0.01")
        again = parse_config_text(config.serialize())
        assert again.content_hash() == config.content_hash()

    def test_epsilon_per_method(self):
        config = ExperimentConfig()
        assert config.epsilon_for("sad") == 1000.0
        assert config.epsilon_for("ae_labeled") == 0.0
        assert config.epsilon_for("od_sad") == 0.0

    def test_too_short_clips_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["clip_seconds=0.1"])

    def test_master_seed_drives_corpus_seed(self):
        a = load_config(overrides=["seed=1"])
        b = load_config(overrides=["seed=2"])
        assert a.corpus.seed != b.corpus.seed


class TestMicroPipeline:
    def test_artifacts_exist(self, micro_experiment):
        exp, report = micro_experiment
        assert exp.paths.manifest.exists()
        for method in ("sad", "od_sad", "ae_labeled", "ae_unlabeled"):
            assert exp.paths.checkpoint(method).exists()
            assert exp.paths.scores_csv(method, "train").exists()
            assert exp.paths.scores_csv(method, "test").exists()
        assert exp.paths.report_json.exists()
        assert exp.paths.report_txt.exists()

    def test_report_row_structure(self, micro_experiment):
        """Four methods plus two ensembles, per SNR level."""
        exp, report = micro_experiment
        methods = {r["method"] for r in report.rows}
        assert methods == {
            "sad", "od_sad", "ae_labeled", "ae_unlabeled",
            "ensemble_labeled", "ensemble_unlabeled",
        }
        snrs = {r["snr_db"] for r in report.rows}
        assert snrs == {6.0, -6.0}
        assert len(report.rows) == 6 * 2
        assert all(0.0 <= r["auc"] <= 1.0 for r in report.rows)

    def test_config_hash_embedded_everywhere(self, micro_experiment):
        exp, report = micro_experiment
        expected = exp.config.content_hash()
        assert report.metadata["config_hash"] == expected
        for method in ("sad", "od_sad", "ae_labeled", "ae_unlabeled"):
            _, _, _, metadata = load_checkpoint(exp.paths.checkpoint(method))
            assert metadata["config_hash"] == expected
        meta = json.loads(exp.paths.scores_meta.read_text())
        assert meta["config_hash"] == expected
        manifest = CorpusManifest.load(exp.paths.manifest)
        assert manifest.generator_config_hash == exp.config.corpus.content_hash()

    def test_parameter_counts_reported(self, micro_experiment):
        exp, report = micro_experiment
        counts = report.metadata["parameter_counts"]
        assert counts["sad"] > 0 and counts["ae_labeled"] > 0

    def test_scores_have_one_row_per_clip(self, micro_experiment):
        exp, _ = micro_experiment
        n_test = len(exp.manifest().split_entries("test"))
        records = read_score_csv(exp.paths.scores_csv("sad", "test"))
        assert len(records) == n_test
        assert len({r.clip_id for r in records}) == n_test

    def test_score_single_clip(self, micro_experiment):
        exp, _ = micro_experiment
        clip_id = exp.manifest().split_entries("test")[0].clip_id
        records = exp.score(["od_sad"], clip_id=clip_id)
        assert len(records["od_sad"]) == 1
        assert records["od_sad"][0].clip_id == clip_id

    def test_trace_output(self, micro_experiment):
        exp, _ = micro_experiment
        clip_id = exp.manifest().split_entries("test")[0].clip_id
        path = exp.trace(clip_id)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,l,p_active"
        feats = exp.features_for(exp.manifest().by_id(clip_id), False)
        L = exp.config.features.window_frames
        assert len(lines) - 1 == (feats.n_frames - L + 1) * L
        p = np.array([float(row.split(",")[2]) for row in lines[1:]])
        assert np.all((p > 0) & (p < 1))

    def test_mismatched_config_checkpoint_refused(self, micro_experiment, tmp_path):
        exp, _ = micro_experiment
        other = make_experiment(tmp_path, MICRO_OVERRIDES, seed=6)  # new seed
        other._manifest = exp.manifest()
        with pytest.raises(ConfigError):
            other.load("sad", exp.paths.checkpoint("sad"))

    @pytest.mark.parametrize("method, wrong_kind", [
        ("sad", "ae_labeled"), ("od_sad", "sad"),
        ("ae_labeled", "ae_unlabeled"), ("ae_unlabeled", "ae_labeled"),
    ])
    def test_wrong_kind_checkpoint_refused(self, micro_experiment, method,
                                           wrong_kind):
        exp, _ = micro_experiment
        with pytest.raises(ConfigError):
            exp.load(method, exp.paths.checkpoint(wrong_kind))

    def test_od_sad_reuses_sad_checkpoint(self, micro_experiment, tmp_path):
        exp, _ = micro_experiment
        fresh = make_experiment(tmp_path / "reuse", MICRO_OVERRIDES, seed=5)
        fresh.gen_data()
        path = fresh.train("od_sad", reuse=exp.paths.checkpoint("sad"))
        kind, _, arrays, _ = load_checkpoint(path)
        assert kind == "od_sad"
        _, _, sad_arrays, _ = load_checkpoint(exp.paths.checkpoint("sad"))
        np.testing.assert_array_equal(arrays["classifier"], sad_arrays["classifier"])

    def test_label_free_clip_scored_by_od_sad_but_not_sad(self, micro_experiment):
        exp, _ = micro_experiment
        manifest = exp.manifest()
        entry = manifest.split_entries("test")[0]
        saved = entry.activity
        exp._feature_cache.pop(entry.clip_id, None)
        entry.activity = None
        try:
            records = exp.score(["od_sad"], clip_id=entry.clip_id)
            assert len(records["od_sad"]) == 1
            with pytest.raises(ConfigError):
                exp.score(["sad"], clip_id=entry.clip_id)
        finally:
            entry.activity = saved
            exp._feature_cache.pop(entry.clip_id, None)

    def test_ae_labeled_requires_labeled_manifest(self, micro_experiment, tmp_path):
        exp, _ = micro_experiment
        fresh = make_experiment(tmp_path / "nolabel", MICRO_OVERRIDES, seed=5)
        manifest = fresh.gen_data()
        for entry in manifest.entries:
            entry.activity = None
        with pytest.raises(ConfigError):
            fresh.train("ae_labeled")


class TestCli:
    def _argv(self, out_dir, *extra):
        argv = list(extra)
        for item in MICRO_OVERRIDES + [f"out_dir={out_dir}", "seed=5"]:
            argv += ["--set", item]
        return argv

    def _copy_trained(self, exp, out):
        """The micro experiment's corpus and checkpoints; same config."""
        shutil.copytree(exp.paths.corpus_dir, out / "corpus")
        shutil.copytree(exp.paths.out_dir / "checkpoints", out / "checkpoints")

    def test_score_method_list_matches_single_calls(self, micro_experiment,
                                                    tmp_path, monkeypatch):
        exp, _ = micro_experiment
        out = tmp_path / "list"
        self._copy_trained(exp, out)
        for method in ("sad", "od-sad"):
            assert cli_main(self._argv(out, "score", "--method", method,
                                       "--split", "test")) == 0
        singles = {p.name: p.read_bytes() for p in (out / "scores").glob("*.csv")}
        shutil.rmtree(out / "scores")

        embedded = []
        original = activity.embed_features

        def counting(features, params):
            embedded.append(features.clip_id)
            return original(features, params)

        for module in (pipeline, activity, gmm):
            monkeypatch.setattr(module, "embed_features", counting)
        assert cli_main(self._argv(out, "score", "--method", "sad,od-sad",
                                   "--split", "test")) == 0
        combined = {p.name: p.read_bytes() for p in (out / "scores").glob("*.csv")}
        assert sorted(combined) == ["od_sad_test.csv", "sad_test.csv"]
        assert combined == singles
        test_ids = [e.clip_id for e in exp.manifest().split_entries("test")]
        assert embedded == test_ids

    def test_score_with_truncated_checkpoint_is_exit_3(self, micro_experiment,
                                                        tmp_path):
        exp, _ = micro_experiment
        out = tmp_path / "trunc"
        self._copy_trained(exp, out)
        ckpt = out / "checkpoints" / "sad.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:100])
        assert cli_main(self._argv(out, "score", "--method", "sad",
                                   "--split", "test")) == 3

    def test_gen_data_and_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "cli"
        assert cli_main(self._argv(out, "gen-data")) == 0
        assert (out / "corpus" / "manifest.json").exists()

    def test_unknown_config_key_is_exit_2(self, tmp_path):
        assert cli_main(["gen-data", "--set", "bogus=1"]) == 2

    def test_score_without_checkpoint_is_exit_3(self, tmp_path):
        out = tmp_path / "cli3"
        assert cli_main(self._argv(out, "gen-data")) == 0
        assert cli_main(self._argv(out, "score", "--method", "sad",
                                   "--split", "test")) == 3

    def test_trace_unknown_clip_is_nonzero(self, tmp_path):
        out = tmp_path / "cli4"
        assert cli_main(self._argv(out, "gen-data")) == 0
        assert cli_main(self._argv(out, "train", "--method", "sad")) == 0
        assert cli_main(self._argv(out, "trace", "--clip", "nope")) == 3

    def test_score_requires_split_xor_clip(self, tmp_path):
        out = tmp_path / "cli5"
        assert cli_main(self._argv(out, "score", "--method", "sad")) == 2

    def test_unknown_method_is_exit_2(self, tmp_path):
        out = tmp_path / "cli6"
        assert cli_main(self._argv(out, "train", "--method", "vae")) == 2

    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("\n".join(MICRO_OVERRIDES) + "\nseed = 5\n")
        out = tmp_path / "cli7"
        code = cli_main(["gen-data", "--config", str(cfg),
                         "--set", f"out_dir={out}"])
        assert code == 0
        assert (out / "corpus" / "manifest.json").exists()


class TestDeterminism:
    def test_gen_data_rerun_is_identical(self, tmp_path):
        a = make_experiment(tmp_path / "a", MICRO_OVERRIDES, seed=3)
        b = make_experiment(tmp_path / "b", MICRO_OVERRIDES, seed=3)
        a.gen_data()
        b.gen_data()
        assert (a.paths.manifest.read_bytes() == b.paths.manifest.read_bytes())
