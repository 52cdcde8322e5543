"""Benchmark of the `asd` experiment loop.

    python3 bench/run.py --workload desk|paper_sad|paper_ae \
        [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process: the `asd` commands a user types, passed
to uasd.cli.main(argv) with src/ on the path, each one starting after the
previous one returned (a closed loop with one client, default BLAS
threading). The seed reaches the program only as the `seed` config key.
The timed command sequence (a pass) repeats while another pass still fits
in --seconds; there is always at least one. Every pass starts from the
same state and its outputs are checked.

Standard output ends with two JSON lines: the run's details (machine facts,
per-pass figures, failed checks), then the result
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 runs one more pass with the span tracer
installed and reports the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
IMPORT_PROBES = 5

# tests/conftest.py DESK_OVERRIDES: the acceptance suite's experiment.
DESK_OVERRIDES = (
    "clip_seconds=2.0", "n_train=120", "n_test_per_condition=30",
    "snr_list=6,0,-6,-12", "features.n_mels=64", "sad.epochs=3",
    "sad.channels=16", "sad.embedding_dim=64", "sad.windows_per_epoch=3000",
    "sad.log_cost_every=0", "ae.epochs=30",
)
# Paper-default shapes (4 s clips, 128 mels, 32 channels, 3 blocks) on a
# corpus small enough for one run.
PAPER_OVERRIDES = (
    "n_train=24", "n_test_per_condition=6", "snr_list=6,-6",
    "sad.epochs=1", "sad.windows_per_epoch=2048",
)
ALL_METHODS = ("sad", "od-sad", "ae-labeled", "ae-unlabeled")
AE_METHODS = ("ae-labeled", "ae-unlabeled")


def _train(method: str) -> tuple[str, ...]:
    return ("train", "--method", method)


def _score(method: str, split: str) -> tuple[str, ...]:
    return ("score", "--method", method, "--split", split)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: tuple[str, ...]
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    check_report: bool = False  # test set large enough for the AUC checks


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk", DESK_OVERRIDES, setup=(),
            timed=(("gen-data",), *map(_train, ALL_METHODS),
                   *(_score(m, s) for m in ALL_METHODS for s in ("train", "test")),
                   ("evaluate",)),
            check_report=True,
        ),
        Workload(
            "paper_sad", PAPER_OVERRIDES, setup=(("gen-data",),),
            timed=(_train("sad"), _train("od-sad"),
                   _score("sad", "test"), _score("od-sad", "test")),
        ),
        # Not in BENCHMARK.json: its timings swing by a quarter from run to
        # run on a shared 2-core machine (see README.md).
        Workload(
            "paper_ae", PAPER_OVERRIDES + ("ae.epochs=40",), setup=(("gen-data",),),
            timed=(*map(_train, AE_METHODS),
                   *(_score(m, s) for m in AE_METHODS for s in ("train", "test"))),
        ),
    )
}


@dataclass
class Pass:
    wall_s: float
    commands: list  # (argv, exit code, seconds)
    failed: int
    scored: int
    skipped: int
    aucs: dict
    digest: str

    def seconds(self, command: str, methods=None) -> float:
        return sum(s for argv, _, s in self.commands
                   if argv[0] == command and (methods is None or argv[2] in methods))


class Run:
    """One configured experiment directory and the commands run in it."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.exp_dir = run_dir / "exp"
        self.config = run_dir / "exp.cfg"
        run_dir.mkdir(parents=True, exist_ok=True)
        lines = list(workload.overrides) + [f"seed={seed}", f"out_dir={self.exp_dir}"]
        self.config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.criterion5_misses: list[str] = []

    def command(self, argv, tracer=None) -> tuple[int, float]:
        """Runs one asd command; returns (exit code, seconds)."""
        from uasd import cli

        full = [argv[0], "--config", str(self.config), *argv[1:]]
        spans = tracer.command(full) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr), spans:
            try:
                code = cli.main(full)
            except Exception:  # a traceback is a program bug; count and go on
                traceback.print_exc()
                code = -1
        return code, time.perf_counter() - start

    def setup_seconds(self) -> float:
        """Median interpreter start-up plus imports, measured in fresh
        processes, plus the median of the workload's set-up commands."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        probes = []
        for _ in range(IMPORT_PROBES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import uasd.cli"], env=env,
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            probes.append(time.perf_counter() - start)
        setups = []
        for _ in range(SETUP_REPEATS if self.workload.setup else 0):
            # fresh files: replacing existing ones by rename waits on the disk
            shutil.rmtree(self.exp_dir, ignore_errors=True)
            total = 0.0
            for argv in self.workload.setup:
                code, seconds = self.command(argv)
                self.attempted += 1
                if code != 0:
                    self.failed += 1
                    self.problems.append(f"set-up {' '.join(argv)} exited {code}")
                total += seconds
            setups.append(total)
        return statistics.median(probes) + (statistics.median(setups) if setups else 0.0)

    def run_pass(self, tracer=None) -> Pass:
        self._clear_outputs()
        codes = []
        start = time.perf_counter()
        for argv in self.workload.timed:
            codes.append((argv, *self.command(argv, tracer)))
        wall = time.perf_counter() - start
        return self._check(codes, wall)

    def _clear_outputs(self) -> None:
        """Every pass starts from the state set-up left behind."""
        if not self.exp_dir.exists():
            return
        for child in self.exp_dir.iterdir():
            if self.workload.setup and child.name == "corpus":
                continue
            if child.is_dir():
                shutil.rmtree(child)
            else:
                child.unlink()

    def _check(self, codes, wall) -> Pass:
        problems = []
        failed = sum(code != 0 for _, code, _ in codes)
        problems += [f"{' '.join(argv)} exited {code}" for argv, code, _ in codes if code]
        attempted = len(codes)
        manifest = self.exp_dir / "corpus" / "manifest.json"
        splits: dict[str, set] = {}
        if manifest.exists():
            for entry in json.loads(manifest.read_text(encoding="utf-8"))["entries"]:
                splits.setdefault(entry["split"], set()).add(entry["clip_id"])
        scored = skipped = 0
        aucs: dict[tuple[str, float], float] = {}
        for argv, code, _ in codes:
            if argv[0] != "score":
                continue
            method, split = argv[2].replace("-", "_"), argv[4]
            expected = splits.get(split, set())
            rows, bad = _read_scores(self.exp_dir / "scores" / f"{method}_{split}.csv",
                                     method, expected)
            problems += bad
            attempted += len(expected)
            failed += len(expected) - len(rows)
            scored += len(rows)
            if code == 0:
                skipped += len(expected) - len(rows)
            if split == "test":
                for snr, value in _aucs(rows).items():
                    aucs[(method, snr)] = value
        if self.workload.check_report:
            problems += _check_report(self.exp_dir / "report.json", aucs)
            self.criterion5_misses = _criterion5_misses(aucs)
        digest = _outputs_digest(self.exp_dir)
        problems += self._check_digest(digest)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        return Pass(wall, codes, failed, scored, skipped, aucs, digest)

    def _check_digest(self, digest: str) -> list[str]:
        """Same sources, workload and seed must give byte-identical outputs,
        within this run and across runs in this checkout."""
        key = hashlib.sha256(
            "\n".join((_tree_digest(SRC), *self.workload.overrides)).encode()).hexdigest()
        path = OUT / "digests" / f"{self.workload.name}_s{self.seed}_{key[:12]}"
        if path.exists():
            known = path.read_text(encoding="utf-8").strip()
            if known != digest:
                return [f"outputs sha256 {digest} differs from {known} of an "
                        "earlier pass with the same seed"]
            return []
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n", encoding="utf-8")
        return []

    def train_windows(self) -> dict[str, int]:
        """Windows each network-training command pushes through forward and
        backward passes: epochs x steps x batch for sad, epochs x eligible
        windows for the AEs. Counted from the corpus after the timed phase."""
        from uasd.autoencoder import eligible_windows
        from uasd.config import load_config
        from uasd.pipeline import Experiment

        trained = {argv[2] for argv in self.workload.timed if argv[0] == "train"}
        if not trained & {"sad", *AE_METHODS}:  # od-sad trains no network
            return {}
        config = load_config(self.config)
        L = config.features.window_frames
        exp = Experiment(config)
        feats = [exp.features_for(e, want_labels=False)
                 for e in exp.manifest().split_entries("train")]
        feats = [f for f in feats if f.n_frames >= L]
        out = {}
        if "sad" in trained:
            per_epoch = config.sad.windows_per_epoch or sum(
                f.n_frames - L + 1 for f in feats)
            steps = max(1, math.ceil(per_epoch / config.sad.batch_size))
            out["sad"] = config.sad.epochs * steps * config.sad.batch_size
        for method in AE_METHODS:
            if method in trained:
                labeled = method == "ae-labeled"
                out[method] = config.ae.epochs * sum(
                    eligible_windows(f, L, labeled).shape[0] for f in feats)
        return out


def _read_scores(path: Path, method: str, expected: set) -> tuple[list, list]:
    """Rows of one score CSV: exactly one finite row per clip of the split."""
    if not path.exists():
        return [], []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems, seen, good = [], set(), []
    for row in rows:
        try:
            clip, raw, snr = row["clip_id"], float(row["raw"]), float(row["snr_db"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"{path.name}: malformed row {row}")
            continue
        if clip not in expected or row["method"] != method:
            problems.append(f"{path.name}: unexpected row {clip} {row['method']}")
        elif clip in seen:
            problems.append(f"{path.name}: clip {clip} scored twice")
        elif not math.isfinite(raw):
            problems.append(f"{path.name}: clip {clip} has score {raw}")
        else:
            seen.add(clip)
            good.append((snr, row["condition"], raw))
    return good, problems


def _aucs(rows) -> dict[float, float]:
    """AUC per SNR by direct pair counting, independent of the program's
    rank formula: P(anomalous > normal) with ties counted one half."""
    out = {}
    for snr in sorted({r[0] for r in rows}, reverse=True):
        normal = [r[2] for r in rows if r[0] == snr and r[1] == "normal"]
        anomalous = [r[2] for r in rows if r[0] == snr and r[1] == "anomalous"]
        if normal and anomalous:
            wins = sum((a > n) + 0.5 * (a == n) for a in anomalous for n in normal)
            out[snr] = wins / (len(normal) * len(anomalous))
    return out


def _check_report(path: Path, aucs: dict) -> list[str]:
    """report.json agrees with the pair-counted AUCs, and every method
    detects better than chance at 6 dB."""
    if not path.exists():
        return ["report.json is missing"]
    report = {(r["method"], float(r["snr_db"])): r["auc"]
              for r in json.loads(path.read_text(encoding="utf-8"))["results"]}
    problems = [f"report AUC {key} = {report.get(key)} but the scores give {value}"
                for key, value in aucs.items()
                if report.get(key) is None or abs(report[key] - value) > 1e-9]
    at_6db = {m: v for (m, snr), v in aucs.items() if snr == 6.0}
    if len(at_6db) != len(ALL_METHODS):
        problems.append(f"AUC at 6 dB for {sorted(at_6db)} only")
    problems += [f"{m} AUC at 6 dB {v} is no better than chance"
                 for m, v in at_6db.items() if v <= 0.5]
    return problems


def _criterion5_misses(aucs: dict) -> list[str]:
    """Acceptance criterion 5 (a) and (b) applied to one seed. The criterion
    bounds the mean over seeds 0-2, and single seeds fall below it (seed 4:
    UASD-SAD 0.68), so a miss is reported but does not fail the run."""
    at_6db = {m: v for (m, snr), v in aucs.items() if snr == 6.0}
    misses = [f"{m} AUC at 6 dB {v:.4f} <= 0.60" for m, v in at_6db.items() if v <= 0.60]
    if at_6db.get("sad", 1.0) < 0.75:
        misses.append(f"sad AUC at 6 dB {at_6db['sad']:.4f} < 0.75")
    return misses


def _outputs_digest(exp_dir: Path) -> str:
    """sha256 over report.json and every score CSV, in name order."""
    h = hashlib.sha256()
    files = sorted((exp_dir / "scores").glob("*.csv")) + [exp_dir / "report.json"]
    for path in files:
        if path.exists():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "src_sha256": _tree_digest(SRC),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS uses; None for other BLAS builds."""
    import ctypes

    import numpy as np

    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> tuple[dict, dict]:
    """Measures one workload; returns (result, details)."""
    exp = Run(workload, seed, run_dir)
    setup_s = exp.setup_seconds()
    passes: list[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(exp.run_pass())

    windows = exp.train_windows()
    sad_rates = [windows["sad"] / p.seconds("train", ("sad",))
                 for p in passes if "sad" in windows]
    score_rates = [p.scored / p.seconds("score") for p in passes if p.seconds("score")]
    aucs = passes[-1].aucs
    if trace:
        metrics = _trace(exp, passes, windows)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (_median([p.wall_s for p in passes]), "s"),
            "sad_train_windows_per_s": (_median(sad_rates), "windows/s"),
            "score_clips_per_s": (_median(score_rates), "scores/s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "ops_ok_frac": (1.0 - exp.failed / exp.attempted, "fraction"),
        }
    result = {
        "correct": exp.failed == 0 and not exp.problems,
        "attempted": exp.attempted,
        "failed": exp.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload.name, "seed": seed, "trace": trace,
        "machine": machine_facts(),
        "passes": [{"wall_s": p.wall_s,
                    "commands": [(" ".join(a), code, s) for a, code, s in p.commands],
                    "scored": p.scored, "failed": p.failed} for p in passes],
        "train_windows": windows,
        "auc": {f"{m}@{snr:g}dB": v for (m, snr), v in aucs.items()},
        "outputs_sha256": passes[-1].digest,
        "problems": exp.problems,
        "criterion5_misses": exp.criterion5_misses,
    }
    return result, details


def _trace(exp: Run, passes: list[Pass], windows: dict) -> dict:
    """One more pass with spans; per-layer metrics from it."""
    from tracer import Tracer
    from uasd.nn import load_checkpoint

    tracer = Tracer()
    tracer.install()
    try:
        traced = exp.run_pass(tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans_{exp.workload.name}_s{exp.seed}.jsonl")

    metrics = tracer.metrics()
    od_sad = exp.exp_dir / "checkpoints" / "od_sad.ckpt"
    iterations = 0
    if od_sad.exists():
        iterations = load_checkpoint(od_sad)[3].get("gmm_fit", {}).get("iterations", 0)
    s = tracer.total_s
    ae_s = s["pipeline.train.ae_labeled"] + s["pipeline.train.ae_unlabeled"]
    ae_windows = windows.get("ae-labeled", 0) + windows.get("ae-unlabeled", 0)
    metrics.update({
        "gmm.fit_gmm.iterations": (iterations, "count"),
        "pipeline.score.skipped": (traced.skipped, "count"),
        "pipeline.train.sad.windows_per_s": (
            windows.get("sad", 0) / s["pipeline.train.sad"]
            if s["pipeline.train.sad"] else 0.0, "windows/s"),
        "pipeline.train.ae.windows_per_s": (
            ae_windows / ae_s if ae_s else 0.0, "windows/s"),
        "evaluation.auc_mean": (
            statistics.fmean(traced.aucs.values()) if traced.aucs else 0.0, "fraction"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (
            traced.wall_s - _median([p.wall_s for p in passes]), "s"),
    })
    return metrics


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat the timed pass while another fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uasd" / "cli.py").is_file():
        print(f"error: no uasd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # A fresh directory per run: replacing files by rename, as the program
    # does, waits for the disk. The directory is left behind because
    # deleting a corpus the disk has started writing waits for it too.
    run_dir = OUT / f"{args.workload}_s{args.seed}_{os.getpid()}"
    result, details = run(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), run_dir)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
