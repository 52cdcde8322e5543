"""Command-line interface.

    asd gen-data  --config exp.cfg [--set key=value ...]
    asd train     --config exp.cfg --method sad|od-sad|ae-labeled|ae-unlabeled
                  [--reuse sad.ckpt]
    asd score     --config exp.cfg --method m1[,m2,...] --split train|test | --clip ID
    asd evaluate  --config exp.cfg [--methods m1,m2,...]
    asd trace     --config exp.cfg --clip ID

`score` with several methods writes one CSV per method; sad and od-sad
scored together embed each clip once.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError, DataError, NumericError, UasdError
from .pipeline import METHODS, Experiment

log = logging.getLogger("uasd")

_METHOD_ALIASES = {
    "sad": "sad",
    "od-sad": "od_sad",
    "od_sad": "od_sad",
    "ae-labeled": "ae_labeled",
    "ae_labeled": "ae_labeled",
    "ae-unlabeled": "ae_unlabeled",
    "ae_unlabeled": "ae_unlabeled",
}


def _method(name: str) -> str:
    if name not in _METHOD_ALIASES:
        raise ConfigError(
            f"unknown method {name!r}; expected one of "
            "sad, od-sad, ae-labeled, ae-unlabeled"
        )
    return _METHOD_ALIASES[name]


def _methods(names: str) -> list[str]:
    return list(dict.fromkeys(_method(m) for m in names.split(",") if m))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asd",
        description="Anomalous sound detection via machine-activity detection",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="experiment config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config entry")

    common(sub.add_parser("gen-data", help="synthesize the corpus"))

    p_train = sub.add_parser("train", help="train one method")
    common(p_train)
    p_train.add_argument("--method", required=True)
    p_train.add_argument("--reuse", default=None,
                         help="existing sad checkpoint for od-sad")

    p_score = sub.add_parser("score", help="score clips with one or more methods")
    common(p_score)
    p_score.add_argument("--method", required=True,
                         help="method or comma-separated method list")
    p_score.add_argument("--split", default=None, choices=["train", "test"])
    p_score.add_argument("--clip", default=None, help="score a single clip id")

    p_eval = sub.add_parser("evaluate", help="assemble the AUC report")
    common(p_eval)
    p_eval.add_argument("--methods", default=",".join(METHODS),
                        help="comma-separated method list")

    p_trace = sub.add_parser("trace", help="emit the activity trace of a clip")
    common(p_trace)
    p_trace.add_argument("--clip", required=True)

    return parser


def _run(args) -> int:
    config = load_config(args.config, args.overrides)
    experiment = Experiment(config)
    if args.command == "gen-data":
        manifest = experiment.gen_data()
        print(f"wrote {len(manifest.entries)} clips under {experiment.paths.corpus_dir}")
    elif args.command == "train":
        path = experiment.train(_method(args.method),
                                reuse=Path(args.reuse) if args.reuse else None)
        print(f"checkpoint: {path}")
    elif args.command == "score":
        if (args.split is None) == (args.clip is None):
            raise ConfigError("score needs exactly one of --split or --clip")
        methods = _methods(args.method)
        records = experiment.score(methods, split=args.split or "test",
                                   clip_id=args.clip)
        tag = f"clip_{args.clip}" if args.clip else args.split
        for method in methods:
            print(f"wrote {len(records[method])} scores to "
                  f"{experiment.paths.scores_csv(method, tag)}")
    elif args.command == "evaluate":
        report = experiment.evaluate(_methods(args.methods))
        print(report.to_text_table())
        print(f"report: {experiment.paths.report_json}")
    elif args.command == "trace":
        path = experiment.trace(args.clip)
        print(f"trace: {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _run(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 2
    except DataError as exc:
        log.error("data error: %s", exc)
        return 3
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return 4
    except UasdError as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
