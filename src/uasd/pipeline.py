"""End-to-end experiment orchestration shared by the CLI and the tests.

Artifacts live under the configured output directory:

    corpus/          audio + labels + manifest.json
    checkpoints/     <method>.ckpt binary containers
    scores/          <method>_<split>.csv + scores_meta.json
    report.json / report.txt
    traces/<clip_id>.csv

Every artifact embeds the experiment config hash, and every consumer
refuses inputs whose hash disagrees with the active configuration.

`Experiment.load` is the one checkpoint loader. `Experiment.score` calls
the per-method scorers directly (`anomaly_score_sad`,
`anomaly_score_od_sad`, `ae_score`), handing the two activity scorers one
shared embedding pass per clip.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .activity import (
    ActivityModelParams,
    activity_trace,
    anomaly_score_sad,
    build_training_clips,
    embed_features,
    train_activity_model,
)
from .audio import read_wav
from .autoencoder import AeModel, ae_score, train_ae
from .config import ExperimentConfig
from .corpus import CorpusManifest, ManifestEntry, generate_corpus
from .errors import ClipScoringError, ConfigError, DataError
from .evaluation import (
    DEFAULT_ENSEMBLES,
    NEEDS_LABELS_AT_INFERENCE,
    EvalReport,
    ScoreRecord,
    read_score_csv,
    run_evaluation,
    write_score_csv,
)
from .features import FeatureMatrix, attach_labels, logmel
from .gmm import GmmModel, anomaly_score_od_sad, collect_training_embeddings, fit_gmm
from .ioutil import atomic_write_text, read_json, write_json
from .nn import Parameter, load_checkpoint, save_checkpoint
from .nn.netspec import build_network, load_state, parameter_count, state_arrays
from .seeding import derive_seed, rng_for

log = logging.getLogger(__name__)

METHODS = ("sad", "od_sad", "ae_labeled", "ae_unlabeled")


@dataclass
class Paths:
    out_dir: Path

    @property
    def corpus_dir(self) -> Path:
        return self.out_dir / "corpus"

    @property
    def manifest(self) -> Path:
        return self.corpus_dir / "manifest.json"

    def checkpoint(self, method: str) -> Path:
        return self.out_dir / "checkpoints" / f"{method}.ckpt"

    def scores_csv(self, method: str, tag: str) -> Path:
        return self.out_dir / "scores" / f"{method}_{tag}.csv"

    @property
    def scores_meta(self) -> Path:
        return self.out_dir / "scores" / "scores_meta.json"

    @property
    def report_json(self) -> Path:
        return self.out_dir / "report.json"

    @property
    def report_txt(self) -> Path:
        return self.out_dir / "report.txt"

    def trace_csv(self, clip_id: str) -> Path:
        return self.out_dir / "traces" / f"{clip_id}.csv"


class Experiment:
    """Stateful handle on one configured experiment directory."""

    def __init__(self, config: ExperimentConfig):
        config.validate()
        self.config = config
        self.paths = Paths(Path(config.out_dir))
        self._manifest: CorpusManifest | None = None
        self._feature_cache: dict[str, FeatureMatrix] = {}

    # ----- data -----

    def gen_data(self) -> CorpusManifest:
        manifest = generate_corpus(self.config.corpus, self.paths.corpus_dir)
        self._manifest = manifest
        return manifest

    def manifest(self) -> CorpusManifest:
        if self._manifest is None:
            if not self.paths.manifest.exists():
                raise DataError(
                    f"no manifest at {self.paths.manifest}; run gen-data first"
                )
            manifest = CorpusManifest.load(self.paths.manifest)
            expected = self.config.corpus.content_hash()
            if manifest.generator_config_hash != expected:
                raise ConfigError(
                    "manifest was generated with a different corpus "
                    f"configuration (hash {manifest.generator_config_hash} != "
                    f"{expected})"
                )
            manifest.validate(check_files=False)
            self._manifest = manifest
        return self._manifest

    def features_for(self, entry: ManifestEntry, want_labels: bool) -> FeatureMatrix:
        cached = self._feature_cache.get(entry.clip_id)
        if cached is None:
            clip = read_wav(self.manifest().clip_path(entry))
            cached = logmel(clip, self.config.features)
            cached.clip_id = entry.clip_id
            if entry.activity is not None:
                attach_labels(cached, entry.activity, clip.n_samples,
                              self.config.features)
            self._feature_cache[entry.clip_id] = cached
        if want_labels and cached.frame_labels is None:
            raise ConfigError(
                f"clip {entry.clip_id!r} carries no activity labels, but a "
                "label-requiring method asked for them"
            )
        return cached

    # ----- training -----

    def train(self, method: str, reuse: Path | None = None) -> Path:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; expected {METHODS}")
        if method == "sad":
            return self._train_sad()
        if method == "od_sad":
            return self._train_od_sad(reuse)
        return self._train_ae(method)

    def _train_sad(self) -> Path:
        clips = build_training_clips(
            self.manifest(), self.config.features,
            lambda entry: self.features_for(entry, want_labels=True),
        )
        params, training_log = train_activity_model(
            clips, self.config.sad, self.config.features.n_mels,
            self.config.features.window_frames, derive_seed(self.config.seed, "sad"),
        )
        path = self.paths.checkpoint("sad")
        arrays, metadata = self._activity_state(params)
        metadata["training_log"] = training_log.entries
        save_checkpoint(path, "sad", arrays, netspec=params.netspec,
                        metadata=metadata)
        log.info("saved sad checkpoint to %s", path)
        return path

    def _train_od_sad(self, reuse: Path | None) -> Path:
        sad_path = reuse or self.paths.checkpoint("sad")
        if not Path(sad_path).exists():
            log.info("no sad checkpoint to reuse; training the activity model")
            sad_path = self._train_sad()
        params = self.load("sad", Path(sad_path))

        train_features = []
        for entry in self.manifest().split_entries("train"):
            f = self.features_for(entry, want_labels=False)
            if f.n_frames >= self.config.features.window_frames:
                train_features.append(f)
        rng = rng_for(self.config.seed, "gmm")
        pool = collect_training_embeddings(train_features, params, self.config.gmm, rng)
        model = fit_gmm(pool, self.config.gmm, rng)

        path = self.paths.checkpoint("od_sad")
        arrays, metadata = self._activity_state(params)
        arrays["gmm.weights"] = model.weights
        arrays["gmm.means"] = model.means
        arrays["gmm.variances"] = model.variances
        metadata["gmm_fit"] = {
            "iterations": model.n_iterations,
            "final_mean_log_likelihood": model.log_likelihood_trace[-1],
            "n_vectors": int(pool.shape[0]),
        }
        save_checkpoint(path, "od_sad", arrays, netspec=params.netspec,
                        metadata=metadata)
        log.info("saved od_sad checkpoint to %s", path)
        return path

    def _activity_state(self, params: ActivityModelParams) -> tuple[dict, dict]:
        """Arrays and metadata shared by the sad and od_sad checkpoints."""
        arrays = {f"embedder.{k}": v for k, v in state_arrays(params.embedder).items()}
        arrays["classifier"] = params.classifier.value
        metadata = {
            "config_hash": self.config.content_hash(),
            "n_mels": self.config.features.n_mels,
            "window_frames": params.window_frames,
            "embedding_dim": params.embedding_dim,
            "parameter_count": parameter_count(params.embedder)
            + params.classifier.value.size,
        }
        return arrays, metadata

    def _train_ae(self, method: str) -> Path:
        variant = "with_labels" if method == "ae_labeled" else "without_labels"
        want_labels = variant == "with_labels"
        features = []
        for entry in self.manifest().split_entries("train"):
            f = self.features_for(entry, want_labels=want_labels)
            if f.n_frames >= self.config.features.window_frames:
                features.append(f)
        model, history = train_ae(
            features, variant, self.config.ae,
            self.config.features.window_frames,
            derive_seed(self.config.seed, method),
        )
        path = self.paths.checkpoint(method)
        arrays = {f"network.{k}": v for k, v in state_arrays(model.network).items()}
        save_checkpoint(
            path, method, arrays, netspec=model.netspec,
            metadata={
                "config_hash": self.config.content_hash(),
                "variant": variant,
                "input_dim": model.input_dim,
                "window_frames": model.window_frames,
                "parameter_count": parameter_count(model.network),
                "error_reduction": model.metadata["error_reduction"],
                "training_log": history,
            },
        )
        log.info("saved %s checkpoint to %s", method, path)
        return path

    def load(self, method: str, path: Path | None = None):
        """Model of one method from its checkpoint (default location).

        Returns ActivityModelParams for sad, (ActivityModelParams,
        GmmModel) for od_sad and an AeModel for the autoencoders. A sad
        load also accepts an od_sad checkpoint, which holds the same
        activity model.
        """
        path = path or self.paths.checkpoint(method)
        kind, netspec, arrays, metadata = load_checkpoint(path)
        if kind != method and (method, kind) != ("sad", "od_sad"):
            raise ConfigError(f"{path} holds a {kind!r} checkpoint, not {method}")
        if metadata.get("config_hash") != self.config.content_hash():
            raise ConfigError(
                f"{path} was produced under config hash "
                f"{metadata.get('config_hash')}, current is "
                f"{self.config.content_hash()}; refusing to mix"
            )
        is_ae = method in ("ae_labeled", "ae_unlabeled")
        network = build_network(netspec, np.random.default_rng(0))
        load_state(network, arrays, "network." if is_ae else "embedder.")
        if is_ae:
            return AeModel(
                network=network, netspec=netspec,
                input_dim=int(metadata["input_dim"]),
                window_frames=int(metadata["window_frames"]),
                uses_labels=metadata["variant"] == "with_labels",
                metadata=dict(metadata),
            )
        params = ActivityModelParams(
            embedder=network,
            classifier=Parameter(np.array(arrays["classifier"]), "classifier"),
            netspec=netspec,
            window_frames=int(metadata["window_frames"]),
            embedding_dim=int(metadata["embedding_dim"]),
        )
        if method == "sad":
            return params
        return params, GmmModel(
            weights=arrays["gmm.weights"], means=arrays["gmm.means"],
            variances=arrays["gmm.variances"],
        )

    # ----- scoring -----

    def score(self, methods: list[str], split: str = "test",
              clip_id: str | None = None) -> dict[str, list[ScoreRecord]]:
        """Score clips (one split, or one clip by id) with each method."""
        manifest = self.manifest()
        if clip_id is not None:
            entries = [manifest.by_id(clip_id)]
            tag = f"clip_{clip_id}"
        else:
            entries = manifest.split_entries(split)
            if not entries:
                raise DataError(f"split {split!r} has no entries")
            tag = split

        models = {m: self.load(m) for m in methods}
        sad = models.get("sad")
        od_sad = models.get("od_sad")

        records: dict[str, list[ScoreRecord]] = {m: [] for m in methods}
        for entry in entries:
            for method in methods:
                needs_labels = NEEDS_LABELS_AT_INFERENCE[method]
                if needs_labels and entry.activity is None:
                    raise ConfigError(
                        f"method {method!r} requires activity labels at "
                        f"inference but clip {entry.clip_id!r} has none"
                    )
            features = self.features_for(
                entry, want_labels=any(NEEDS_LABELS_AT_INFERENCE[m] for m in methods)
            )
            # both activity checkpoints hold the activity model of this
            # config hash, so one embedding pass serves both scores
            emb = None
            if sad is not None or od_sad is not None:
                emb = embed_features(features, sad or od_sad[0])
            for method in methods:
                try:
                    if method == "sad":
                        value = anomaly_score_sad(features, sad, emb)
                    elif method == "od_sad":
                        value = anomaly_score_od_sad(features, *od_sad, emb)
                    else:
                        value = ae_score(features, models[method])
                except ClipScoringError as exc:
                    log.error("scoring failed: %s", exc)
                    continue
                records[method].append(
                    ScoreRecord(
                        clip_id=entry.clip_id, method_id=method, raw_score=value,
                        condition=entry.condition, snr_db=entry.snr_db,
                        noise_profile_id=entry.noise_profile_id,
                    )
                )

        meta = self._load_scores_meta()
        for method in methods:
            write_score_csv(records[method], self.paths.scores_csv(method, tag))
            meta["files"][f"{method}_{tag}"] = f"{method}_{tag}.csv"
        meta["config_hash"] = self.config.content_hash()
        write_json(self.paths.scores_meta, meta)
        return records

    def _load_scores_meta(self) -> dict:
        if self.paths.scores_meta.exists():
            meta = read_json(self.paths.scores_meta)
            if meta.get("config_hash") != self.config.content_hash():
                return {"files": {}}
            return meta
        return {"files": {}}

    # ----- evaluation -----

    def evaluate(self, methods: list[str] | None = None,
                 ensembles: dict[str, tuple[str, ...]] | None = None) -> EvalReport:
        """Assemble the AUC report from persisted score CSVs."""
        methods = list(methods or METHODS)
        if ensembles is None:
            ensembles = {
                name: members for name, members in DEFAULT_ENSEMBLES.items()
                if all(m in methods for m in members)
            }
        meta = self._load_scores_meta()
        if meta.get("config_hash") != self.config.content_hash():
            raise ConfigError(
                "score files were produced under a different config; rerun scoring"
            )
        profile = self.config.corpus.noise_kind
        test_records: dict[str, list[ScoreRecord]] = {}
        train_scores: dict[str, list[float]] = {}
        for method in methods:
            test_csv = self.paths.scores_csv(method, "test")
            train_csv = self.paths.scores_csv(method, "train")
            if not test_csv.exists() or not train_csv.exists():
                raise DataError(
                    f"missing score CSVs for {method!r}; run score on both splits"
                )
            test_records[method] = read_score_csv(test_csv, profile)
            train_scores[method] = [
                r.raw_score for r in read_score_csv(train_csv, profile)
            ]

        parameter_counts = {}
        for method in methods:
            ckpt = self.paths.checkpoint(method)
            if ckpt.exists():
                _, _, _, md = load_checkpoint(ckpt)
                parameter_counts[method] = md.get("parameter_count")

        report = run_evaluation(
            test_records, train_scores,
            epsilons={m: self.config.epsilon_for(m) for m in methods},
            ensembles=ensembles,
            metadata={
                "config_hash": self.config.content_hash(),
                "seed": self.config.seed,
                "noise_profile": profile,
                "parameter_counts": parameter_counts,
                "epsilons": {m: self.config.epsilon_for(m) for m in methods},
            },
        )
        atomic_write_text(self.paths.report_json, report.to_json())
        atomic_write_text(self.paths.report_txt, report.to_text_table())
        return report

    # ----- tracing -----

    def trace(self, clip_id: str) -> Path:
        params = self.load("sad")
        entry = self.manifest().by_id(clip_id)
        features = self.features_for(entry, want_labels=False)
        rows = activity_trace(features, params)
        lines = ["t,l,p_active"]
        for t, l, p in rows:
            lines.append(f"{int(t)},{int(l)},{float(p)!r}")
        path = self.paths.trace_csv(clip_id)
        atomic_write_text(path, "\n".join(lines) + "\n")
        return path

    # ----- convenience -----

    def run_all(self, methods: list[str] | None = None) -> EvalReport:
        """gen-data, train every method, score both splits, evaluate."""
        methods = list(methods or METHODS)
        if not self.paths.manifest.exists():
            self.gen_data()
        for method in methods:
            self.train(method)
        self.score(methods, split="train")
        self.score(methods, split="test")
        return self.evaluate(methods)
