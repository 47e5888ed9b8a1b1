"""Run the minifair CLI in this process, as `python -m minifair` would.

    python3 perfbench/launch.py --mark FILE [--probe] [--trace DIR] -- run --config ...

--mark   write the monotonic clock to FILE when the first `load_csv` returns,
         which ends the set-up interval (interpreter, imports, CSV parse)
--probe  exit right after that mark: a set-up-only run
--trace  install the per-layer wrappers of tracer.py and write the numbers of
         every process to DIR
"""
from __future__ import annotations

import argparse
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mark", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from minifair import cli, harness

    tracer = None
    cli_main = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.trace)
        cli_main = tracer.install()

    load_csv = harness.load_csv

    def load_csv_marked(*a, **kw):
        raw = load_csv(*a, **kw)
        with open(args.mark, "w", encoding="utf-8") as fh:
            fh.write(repr(time.monotonic()))
        if args.probe:
            os._exit(0)
        harness.load_csv = load_csv
        return raw

    harness.load_csv = load_csv_marked
    try:
        return cli_main(cli_args)
    finally:
        if tracer is not None:
            tracer.write()


if __name__ == "__main__":
    sys.exit(main())
