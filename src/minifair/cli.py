"""Command-line front end: `run` executes the repeated-run comparison,
`sweep` varies the gap-penalty weight, `score` evaluates an external
predictions CSV. Exit code 0 on success, 1 on configuration or data errors.
"""
from __future__ import annotations

import argparse
import sys

from .config import KEYS, ConfigError, load_config
from .harness import (
    REPORT_FORMATS,
    MethodFailed,
    emit_report,
    emit_sweep_report,
    experiment_config_from_dict,
    lambda_sweep,
    run_experiment,
    score_prediction_file,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minifair",
        description="Fair-representation benchmark harness over tabular CSV datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="repeated-run method comparison")
    sweep_p = sub.add_parser("sweep", help="gap-weight sweep of the invariant method")
    # an override's dest is the config key it sets
    for p in (run_p, sweep_p):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--dataset", help="override configured dataset name")
        p.add_argument("--method", dest="methods", help="override method list, comma-separated")
        p.add_argument("--repeats", type=int, help="override repeat count")
        p.add_argument("--seed", type=int, help="override base seed")
        p.add_argument("--out", dest="out.path", help="override report path")
        p.add_argument(
            "--format", dest="out.format", choices=REPORT_FORMATS, help="override report format"
        )
    sweep_p.add_argument(
        "--lambda", dest="sweep.lambdas", help="comma-separated gap weights to sweep"
    )

    score_p = sub.add_parser("score", help="metric suite over a predictions CSV")
    score_p.add_argument(
        "--predictions",
        required=True,
        help="CSV with a target column, a prediction (regression) or logit "
        "(classification) column, and one column per sensitive attribute",
    )
    score_p.add_argument("--out", required=True, help="report path")
    score_p.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    return parser


def _load_experiment(args):
    mapping = load_config(args.config)
    mapping.update(
        (key, str(value)) for key, value in vars(args).items()
        if key in KEYS and value is not None
    )
    cfg = experiment_config_from_dict(mapping)
    if not cfg.out_path:
        raise ConfigError("no output path: set out.path or pass --out")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load_experiment(args)
            report = run_experiment(cfg)
            emit_report(report, cfg.out_format, cfg.out_path)
            print(f"wrote {cfg.out_format} report to {cfg.out_path}")
        elif args.command == "sweep":
            cfg = _load_experiment(args)
            if not cfg.sweep_lambdas:
                raise ConfigError("no lambdas: set sweep.lambdas or pass --lambda")
            reports = lambda_sweep(cfg, cfg.sweep_lambdas)
            emit_sweep_report(reports, cfg.out_format, cfg.out_path)
            print(f"wrote {cfg.out_format} sweep report to {cfg.out_path}")
        else:  # score
            report = score_prediction_file(args.predictions)
            emit_report(report, args.format, args.out)
            print(f"wrote {args.format} report to {args.out}")
    except (ConfigError, ValueError, OSError, MethodFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
