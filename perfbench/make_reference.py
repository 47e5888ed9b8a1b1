"""Write the reference reports that every benchmark run is checked against.

    python3 perfbench/make_reference.py [--smoke]

Run it on the commit whose behaviour the references pin (the benchmark's
references come from the commit that added the benchmark). Each report is
produced by `python -m minifair` on the inputs run.py generates for the same
workload and variant: every workload, variants 0-9, or variant 0 only with
--smoke (the self-tests' references).
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

from run import SRC, THREAD_ENV, VARIANTS, WORK, WORKLOADS, child_env, reference_path, write_inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    variants = range(1 if args.smoke else VARIANTS)

    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    for workload in WORKLOADS.values():
        for variant in variants:
            work_dir = os.path.join(WORK, "reference", workload.name)
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            cfg_path = write_inputs(workload, variant, args.smoke, work_dir)
            out = reference_path(workload, variant, args.smoke)
            os.makedirs(os.path.dirname(out), exist_ok=True)
            subprocess.run(
                [sys.executable, "-m", "minifair", workload.command, "--config", cfg_path, "--out", out],
                env=child_env(), cwd=work_dir, check=True,
            )


if __name__ == "__main__":
    main()
