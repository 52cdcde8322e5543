"""Self-test of the benchmark harness at the test suite's micro shapes.

    python3 bench/selftest.py

Checks, in a few seconds each, that an untraced run emits every end-to-end
metric of BENCHMARK.json and a traced run every per-layer metric, each with
its unit, and that an injected failure (scoring with the sad checkpoint
missing, which the CLI answers with exit code 3) shows in ops_ok_frac.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench

# tests/conftest.py MICRO_OVERRIDES
MICRO_OVERRIDES = (
    "clip_seconds=1.2", "n_train=8", "n_test_per_condition=3", "snr_list=6,-6",
    "features.n_mels=32", "sad.epochs=1", "sad.channels=4", "sad.blocks=1",
    "sad.embedding_dim=16", "sad.windows_per_epoch=256", "sad.log_cost_every=0",
    "ae.epochs=2", "ae.hidden_dim=32", "ae.bottleneck_dim=4", "gmm.components=2",
)


def _check_metrics(result: dict, specs: list[dict]) -> None:
    got = result["metrics"]
    names = [s["name"] for s in specs]
    assert sorted(got) == sorted(names), (
        f"missing {sorted(set(names) - set(got))}, extra {sorted(set(got) - set(names))}")
    for spec in specs:
        metric = got[spec["name"]]
        assert metric["unit"] == spec["unit"], (spec, metric)
        assert isinstance(metric["value"], (int, float)), (spec, metric)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    desk = bench.WORKLOADS["desk"]
    micro = bench.Workload("selftest_micro", MICRO_OVERRIDES, setup=(),
                           timed=desk.timed)
    broken = bench.Workload("selftest_missing_checkpoint", MICRO_OVERRIDES,
                            setup=(("gen-data",),),
                            timed=(bench._score("sad", "test"),))
    sys.path.insert(0, str(bench.SRC))
    run_dir = bench.OUT / "selftest"
    try:
        for trace, names in ((False, "end_to_end"), (True, "per_layer")):
            shutil.rmtree(run_dir, ignore_errors=True)
            result, details = bench.run(micro, 0, 0.0, trace, run_dir)
            assert result["correct"] and result["failed"] == 0, details["problems"]
            _check_metrics(result, spec[names])
            print(f"ok: {names} metrics emitted with units (trace={int(trace)})")

        shutil.rmtree(run_dir, ignore_errors=True)
        result, details = bench.run(broken, 0, 0.0, False, run_dir)
        ok_frac = result["metrics"]["ops_ok_frac"]["value"]
        # the failed command plus every test clip left unscored
        assert result["failed"] == 1 + 2 * 2 * 3, result
        assert not result["correct"] and ok_frac < 1.0, result
        assert any("exited 3" in p for p in details["problems"]), details["problems"]
        print(f"ok: missing checkpoint shows as ops_ok_frac {ok_frac:.3f} "
              f"({result['failed']} of {result['attempted']} failed)")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
