"""Outside-in span tracer for the uasd package.

The tracer wraps layer boundaries from outside the program: class methods
of the nn layers, the optimizer and the pipeline's Experiment, and module
functions under every name a caller looks them up by (``pipeline`` imports
``logmel`` by name, so ``uasd.pipeline.logmel`` is wrapped as well as
``uasd.features.logmel``). Nothing under ``src/`` changes.

Each span holds (id, parent id, request id, name, start, end). The request
id is the id of the root span of the CLI command that caused it. Spans stay
in memory until ``write_spans``. A span's self time is its duration minus
the time covered by its direct children; the process is single-threaded,
so children never overlap.

Counts that depend on shapes (Conv2d flop, patch-matrix bytes, the share
of backward passes that rebuild their patch matrix) are computed from the
arguments, not measured, and are labelled "computed" in the README.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

MB = 2**20
METHODS = ("sad", "od_sad", "ae_labeled", "ae_unlabeled")

# Span name -> (defining module, function name). Each function is wrapped
# wherever a uasd module binds it, so callers that imported it by name see
# the wrapper too.
FUNCTIONS = {
    "config.load_config": ("uasd.config", "load_config"),
    "corpus.generate_corpus": ("uasd.corpus", "generate_corpus"),
    "synth.synth_machine_clip": ("uasd.synth", "synth_machine_clip"),
    "synth.synth_noise": ("uasd.synth", "synth_noise"),
    "audio.read_wav": ("uasd.audio", "read_wav"),
    "audio.write_wav": ("uasd.audio", "write_wav"),
    "audio.mix_at_snr": ("uasd.audio", "mix_at_snr"),
    "features.logmel": ("uasd.features", "logmel"),
    "nn.checkpoint.load": ("uasd.nn.checkpoint", "load_checkpoint"),
    "nn.checkpoint.save": ("uasd.nn.checkpoint", "save_checkpoint"),
    "activity.train_activity_model": ("uasd.activity", "train_activity_model"),
    "activity.embed_features": ("uasd.activity", "embed_features"),
    "activity.embed_windows": ("uasd.activity", "embed_windows"),
    "gmm.collect_training_embeddings": ("uasd.gmm", "collect_training_embeddings"),
    "gmm.fit_gmm": ("uasd.gmm", "fit_gmm"),
    "gmm.gmm_score": ("uasd.gmm", "gmm_score"),
    "autoencoder.train_ae": ("uasd.autoencoder", "train_ae"),
    "autoencoder.ae_score": ("uasd.autoencoder", "ae_score"),
    "evaluation.write_score_csv": ("uasd.evaluation", "write_score_csv"),
    "evaluation.read_score_csv": ("uasd.evaluation", "read_score_csv"),
    "evaluation.run_evaluation": ("uasd.evaluation", "run_evaluation"),
}

LAYER_CLASSES = ("Conv2d", "Dense", "BatchNorm", "ReLU", "FramewiseDense")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._request = None
        self._undo: list[tuple] = []
        self._checkpoint_reads: dict[int, list[str]] = defaultdict(list)
        self._wav_paths: set[str] = set()
        self._conv_rebuilds: dict[int, tuple[int, int]] = {}  # layer -> (flop, bytes)

    # ----- spans -----

    def _enter(self) -> None:
        span_id = self._next_id
        self._next_id += 1
        if not self._stack:
            self._request = span_id
        self._stack.append([span_id, time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, parent[0] if parent else None,
                           self._request, name, start, end))
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child

    def _wrap(self, fn, name, before=None):
        """name is a span name or a function of the call's arguments;
        before(*args, **kwargs) runs ahead of the span to record counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = name if isinstance(name, str) else name(*args, **kwargs)
            tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)

        return traced

    # ----- installation -----

    def install(self) -> None:
        import uasd.cli  # noqa: F401  (loads every module the CLI uses)
        from uasd.nn import layers, optim
        from uasd.pipeline import Experiment

        hooks = {
            "audio.read_wav": self._count_read_wav,
            "nn.checkpoint.load": self._count_checkpoint_load,
            "nn.checkpoint.save": self._count_checkpoint_save,
            "activity.embed_windows": self._count_embed_windows,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uasd" or n.startswith("uasd."))]
        for span, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, span, hooks.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)

        for cls_name in LAYER_CLASSES:
            cls = getattr(layers, cls_name)
            for method in ("forward", "backward"):
                before = None
                if cls_name == "Conv2d":
                    before = (self._count_conv_forward if method == "forward"
                              else self._count_conv_backward)
                self._patch(cls, method, self._wrap(
                    getattr(cls, method), f"nn.{cls_name}.{method}", before))
        self._patch(optim.Adam, "step",
                    self._wrap(optim.Adam.step, "nn.Adam.step", self._count_adam))

        self._patch(Experiment, "gen_data",
                    self._wrap(Experiment.gen_data, "pipeline.gen_data"))
        self._patch(Experiment, "train", self._wrap(
            Experiment.train, lambda exp, method, *a, **k: f"pipeline.train.{method}"))
        self._patch(Experiment, "score",
                    self._wrap(Experiment.score, _score_span_name))
        self._patch(Experiment, "evaluate",
                    self._wrap(Experiment.evaluate, "pipeline.evaluate"))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def command(self, argv: list[str]):
        """Span around one CLI command; the root of one request."""
        self._enter()
        try:
            yield
        finally:
            self._exit("cli." + argv[0])

    # ----- counts -----

    # Count hooks run before the wrapped call and must not raise: a bad
    # argument is the program's to reject.

    def _count_read_wav(self, path, *args, **kwargs) -> None:
        self._wav_paths.add(str(path))
        if os.path.isfile(path):
            self.counts["audio.read_wav.bytes"] += os.path.getsize(path)

    def _count_checkpoint_load(self, path, *args, **kwargs) -> None:
        self._checkpoint_reads[self._request].append(str(path))

    def _count_embed_windows(self, windows_batch, *args, **kwargs) -> None:
        self.counts["activity.embed_windows.windows"] += windows_batch.shape[0]

    def _count_checkpoint_save(self, path, kind, arrays, *args, **kwargs) -> None:
        # the container stores every tensor as float64
        self.counts["nn.checkpoint.save.bytes"] += 8 * sum(
            np.asarray(a).size for a in arrays.values())

    def _count_adam(self, optimizer) -> None:
        self.counts["nn.Adam.step.params_bytes"] += sum(
            p.value.nbytes for p in optimizer.params)

    def _count_conv_forward(self, layer, x, train) -> None:
        from uasd.nn import layers

        if x.ndim != 4:
            return
        B, H, W, _ = x.shape
        k2 = layer.kernel * layer.kernel
        flop = 2 * B * H * W * k2 * layer.c_in * layer.c_out
        cols = B * H * W * k2 * layer.c_in * x.itemsize if hasattr(layers, "_im2col") else 0
        limit = getattr(layers, "_COLS_CACHE_BYTES", None)
        self.counts["nn.Conv2d.flop"] += flop
        self.counts["nn.Conv2d.im2col_bytes"] += cols
        if train:
            rebuilt = cols if limit is not None and cols > limit else 0
            self._conv_rebuilds[id(layer)] = (flop, rebuilt)

    def _count_conv_backward(self, layer, dout) -> None:
        from uasd.nn import layers

        flop, rebuilt = self._conv_rebuilds.pop(id(layer), (0, 0))
        self.counts["nn.Conv2d.flop"] += 2 * flop
        self.counts["nn.Conv2d.backward.rebuilds"] += bool(rebuilt)
        if hasattr(layers, "_im2col") and dout.ndim == 4:
            B, H, W, _ = dout.shape
            dcols = B * H * W * layer.kernel**2 * layer.c_out * dout.itemsize
            self.counts["nn.Conv2d.im2col_bytes"] += rebuilt + dcols

    # ----- results -----

    def metrics(self) -> dict[str, tuple[float, str]]:
        c, s, t, n = self.calls, self.self_s, self.total_s, self.counts
        conv_s = s["nn.Conv2d.forward"] + s["nn.Conv2d.backward"]
        reads = sum(len(v) for v in self._checkpoint_reads.values())
        distinct = sum(len(set(v)) for v in self._checkpoint_reads.values())
        out = {
            "nn.Conv2d.forward.calls": (c["nn.Conv2d.forward"], "count"),
            "nn.Conv2d.forward.self_s": (s["nn.Conv2d.forward"], "s"),
            "nn.Conv2d.backward.calls": (c["nn.Conv2d.backward"], "count"),
            "nn.Conv2d.backward.self_s": (s["nn.Conv2d.backward"], "s"),
            "nn.Conv2d.gflop": (n["nn.Conv2d.flop"] / 1e9, "GFLOP"),
            "nn.Conv2d.gflop_per_s": (
                _ratio(n["nn.Conv2d.flop"] / 1e9, conv_s), "GFLOP/s"),
            "nn.Conv2d.im2col_mb": (n["nn.Conv2d.im2col_bytes"] / MB, "MB"),
            "nn.Conv2d.backward.recompute_frac": (
                _ratio(n["nn.Conv2d.backward.rebuilds"], c["nn.Conv2d.backward"]),
                "fraction"),
            "nn.Dense.forward.self_s": (s["nn.Dense.forward"], "s"),
            "nn.Dense.backward.self_s": (s["nn.Dense.backward"], "s"),
            "nn.Dense.calls": (c["nn.Dense.forward"] + c["nn.Dense.backward"], "count"),
            "nn.BatchNorm.forward.self_s": (s["nn.BatchNorm.forward"], "s"),
            "nn.BatchNorm.backward.self_s": (s["nn.BatchNorm.backward"], "s"),
            "nn.ReLU.self_s": (s["nn.ReLU.forward"] + s["nn.ReLU.backward"], "s"),
            "nn.FramewiseDense.self_s": (
                s["nn.FramewiseDense.forward"] + s["nn.FramewiseDense.backward"], "s"),
            "nn.Adam.step.calls": (c["nn.Adam.step"], "count"),
            "nn.Adam.step.self_s": (s["nn.Adam.step"], "s"),
            "nn.Adam.step.params_mb": (n["nn.Adam.step.params_bytes"] / MB, "MB"),
            "nn.checkpoint.load.calls": (c["nn.checkpoint.load"], "count"),
            "nn.checkpoint.load.self_s": (s["nn.checkpoint.load"], "s"),
            "nn.checkpoint.load.distinct_frac": (_ratio(distinct, reads), "fraction"),
            "nn.checkpoint.save.self_s": (s["nn.checkpoint.save"], "s"),
            "nn.checkpoint.save.mb": (n["nn.checkpoint.save.bytes"] / MB, "MB"),
            "features.logmel.calls": (c["features.logmel"], "count"),
            "features.logmel.self_s": (s["features.logmel"], "s"),
            "features.logmel.per_clip": (
                _ratio(c["features.logmel"], len(self._wav_paths)), "calls/clip"),
            "audio.read_wav.self_s": (s["audio.read_wav"], "s"),
            "audio.read_wav.mb": (n["audio.read_wav.bytes"] / MB, "MB"),
            "audio.write_wav.self_s": (s["audio.write_wav"], "s"),
            "audio.mix_at_snr.self_s": (s["audio.mix_at_snr"], "s"),
            "synth.synth_machine_clip.self_s": (s["synth.synth_machine_clip"], "s"),
            "synth.synth_noise.self_s": (s["synth.synth_noise"], "s"),
            "corpus.generate_corpus.s": (t["corpus.generate_corpus"], "s"),
            "activity.train_activity_model.self_s": (
                s["activity.train_activity_model"], "s"),
            "activity.embed_windows.calls": (c["activity.embed_windows"], "count"),
            "activity.embed_windows.windows": (
                n["activity.embed_windows.windows"], "windows"),
            "activity.embed_windows.s": (t["activity.embed_windows"], "s"),
            "gmm.collect_training_embeddings.s": (
                t["gmm.collect_training_embeddings"], "s"),
            "gmm.fit_gmm.s": (t["gmm.fit_gmm"], "s"),
            "gmm.gmm_score.self_s": (s["gmm.gmm_score"], "s"),
            "autoencoder.train_ae.self_s": (s["autoencoder.train_ae"], "s"),
            "autoencoder.ae_score.s": (t["autoencoder.ae_score"], "s"),
            "evaluation.write_score_csv.s": (t["evaluation.write_score_csv"], "s"),
            "evaluation.read_score_csv.s": (t["evaluation.read_score_csv"], "s"),
            "evaluation.run_evaluation.s": (t["evaluation.run_evaluation"], "s"),
            "config.load_config.s": (t["config.load_config"], "s"),
            "pipeline.gen_data.s": (t["pipeline.gen_data"], "s"),
            "pipeline.evaluate.s": (t["pipeline.evaluate"], "s"),
            "pipeline.score.self_s": (
                sum(v for k, v in s.items() if k.startswith("pipeline.score.")), "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        for method in METHODS:
            out[f"pipeline.train.{method}.s"] = (t[f"pipeline.train.{method}"], "s")
            for split in ("train", "test"):
                name = f"pipeline.score.{method}.{split}"
                out[name + ".s"] = (t[name], "s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "request": request, "name": name,
                                     "start": start, "end": end}) + "\n")


def _score_span_name(exp, methods, split="test", clip_id=None) -> str:
    return f"pipeline.score.{'+'.join(methods)}.{split}"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

