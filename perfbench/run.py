"""minifair benchmark: the real `minifair run` / `minifair sweep` CLI, one
fresh process per invocation, on seeded synthetic stand-ins.

    python3 perfbench/run.py --workload law-run-all --seed 0 --seconds 20 --trace 0

Run from any directory of a source checkout; the program is imported from
its `src/`. The seed picks one of VARIANTS data sets and base seeds, whose
reports the seed commit produced and `reference/` holds. Every report is
checked against its reference (check.py).

--trace 0 reports the end-to-end metrics: medians over the invocations that
fit in --seconds (at least MIN_INVOCATIONS), with PROBES_PER_INVOCATION extra
set-up-only processes per invocation for `setup_s`. --trace 1 alternates an
untraced and a traced invocation and reports the per-layer numbers of the
traced ones (tracer.py) plus the tracing overhead. Outside smoke mode a traced
invocation whose top-level spans cover less than MIN_TOP_LEVEL_SHARE of its
wall time makes the run incorrect: the tracer has lost part of the program.

The last line of stdout is one JSON object: correct, attempted, failed (fits,
see check.py) and metrics. The lines before it print every metric with its
unit, `failed_share` and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

from check import check_report
from tracer import layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(BENCH_DIR, "reference")

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
VARIANTS = 10
MIN_INVOCATIONS = 2
PROBES_PER_INVOCATION = 6
MIN_TOP_LEVEL_SHARE = 0.9
RSS_POLL_S = 0.05
CHILD_SCAN_EVERY = 4  # polls between scans of /proc for pool workers

ALL_METHODS = (
    "full-lr, full-gboost, unaware-lr, unaware-gboost, ae-lr, ae-gboost, "
    "invenc-lr, invenc-gboost, invfair"
)
# Few epochs and rounds, for the benchmark's self-tests.
SMOKE_CONFIG = (
    ("train.epochs", "2"), ("ae.epochs", "2"), ("baseline.ae_epochs", "2"), ("boost.rounds", "3"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str   # CLI subcommand: run | sweep
    dataset: str
    rows: int
    repeats: int
    workers: int
    config: tuple  # extra (key, value) config lines


WORKLOADS = {
    w.name: w
    for w in (
        Workload("law-run-all", "run", "law", 1600, 2, 1, (
            ("methods", ALL_METHODS), ("train.epochs", "100"),
        )),
        Workload("compas-sweep", "sweep", "compas", 2000, 1, 1, (
            ("methods", "invfair"), ("sweep.lambdas", "0.1, 10, 1000"),
        )),
        Workload("adult-run-pool", "run", "adult", 1500, 2, 2, (
            ("methods", "full-gboost, unaware-gboost, ae-lr, ae-gboost, invenc-gboost, invfair"),
            ("train.batch_size", "256"),
        )),
    )
}


def reference_path(workload, variant, smoke):
    parts = [REFERENCE] + (["smoke"] if smoke else []) + [workload.name, f"variant{variant}.json"]
    return os.path.join(*parts)


def write_inputs(workload, variant, smoke, work_dir):
    """Synthetic CSV and config file of one variant; returns the config path."""
    from minifair import synthdata

    csv_path = os.path.join(work_dir, f"{workload.dataset}.csv")
    generate = getattr(synthdata, f"generate_{workload.dataset}_csv")
    generate(csv_path, n=workload.rows, seed=variant)
    lines = {
        "dataset": workload.dataset,
        "data.path": csv_path,
        "repeats": str(workload.repeats),
        "seed": str(variant),
        "workers": str(workload.workers),
        "out.format": "json",
    }
    lines.update(workload.config)
    lines.update(SMOKE_CONFIG if smoke else ())
    cfg_path = os.path.join(work_dir, "experiment.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in lines.items())
    return cfg_path


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class RssPoller(threading.Thread):
    """Last VmHWM (peak resident set) seen for a process and its children."""

    def __init__(self, root_pid):
        super().__init__(daemon=True)
        self.root_pid = root_pid
        self.peak_kb = {}
        self.done = threading.Event()

    def run(self):
        pids = {self.root_pid}
        tick = 0
        while not self.done.is_set():
            if tick % CHILD_SCAN_EVERY == 0:
                pids |= _children(self.root_pid)
            for pid in list(pids):
                kb = _vm_hwm_kb(pid)
                if kb is None:
                    pids.discard(pid)
                else:
                    self.peak_kb[pid] = kb
            tick += 1
            self.done.wait(RSS_POLL_S)

    def stop(self):
        self.done.set()
        self.join()
        return sum(self.peak_kb.values()) / 1024.0


def _children(pid):
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.add(int(entry))
    return found


def _vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


@dataclass
class Invocation:
    exit_code: int
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    fits: int = 0


class Run:
    """State of one benchmark run: inputs, reference and the fit tally."""

    def __init__(self, workload, variant, smoke, work_dir):
        self.workload = workload
        self.smoke = smoke
        self.work_dir = work_dir
        self.cfg_path = write_inputs(workload, variant, smoke, work_dir)
        self.out_path = os.path.join(work_dir, "report.json")
        with open(reference_path(workload, variant, smoke), encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.max_drift = 0.0
        self.correct = True

    def probe(self):
        """Set-up time of one process that exits when the first CSV is loaded."""
        inv = self._launch(probe=True)
        if inv.exit_code != 0:
            self.correct = False
        return inv.setup_s

    def invoke(self, trace_dir=None):
        """One full CLI run, checked against the reference."""
        inv = self._launch(trace_dir=trace_dir)
        got = None
        if inv.exit_code == 0:
            try:
                with open(self.out_path, encoding="utf-8") as fh:
                    got = json.load(fh)
            except (OSError, ValueError):
                pass
        attempted, failed, drift = check_report(self.reference, got, self.workload.repeats)
        if got is None or failed:
            self.correct = False
        self.attempted += attempted
        self.failed += failed
        self.max_drift = max(self.max_drift, drift)
        inv.fits = attempted - failed
        return inv

    def _launch(self, probe=False, trace_dir=None):
        """One CLI process, timed from spawn to exit."""
        mark = os.path.join(self.work_dir, "setup.mark")
        for stale in (mark, self.out_path):
            if os.path.exists(stale):
                os.remove(stale)
        argv = [sys.executable, os.path.join(BENCH_DIR, "launch.py"), "--mark", mark]
        argv += ["--probe"] if probe else []
        argv += ["--trace", trace_dir] if trace_dir else []
        argv += ["--", self.workload.command, "--config", self.cfg_path, "--out", self.out_path]
        with open(os.path.join(self.work_dir, "cli.log"), "a", encoding="utf-8") as log:
            start = time.monotonic()
            proc = subprocess.Popen(argv, env=child_env(), cwd=self.work_dir, stdout=log, stderr=log)
            poller = None if probe else RssPoller(proc.pid)
            if poller:
                poller.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        peak = poller.stop() if poller else 0.0
        try:
            with open(mark, encoding="utf-8") as fh:
                setup_s = float(fh.read()) - start
        except (OSError, ValueError):
            setup_s = float("nan")
        return Invocation(proc.returncode, end - start, setup_s, usage.ru_utime + usage.ru_stime, peak)


def repeat_until(seconds, minimum, step):
    """Results of step(), repeated until the next one would end after `seconds`."""
    start = time.monotonic()
    results = []
    while True:
        results.append(step())
        elapsed = time.monotonic() - start
        if len(results) >= minimum and elapsed / len(results) * (len(results) + 1) > seconds:
            return results


def measure_end_to_end(run, seconds):
    run.probe()  # warm-up: byte-compiles the package and fills the file cache
    setups = []

    def step():
        setups.extend(run.probe() for _ in range(PROBES_PER_INVOCATION))
        inv = run.invoke()
        setups.append(inv.setup_s)
        return inv

    invocations = repeat_until(seconds, MIN_INVOCATIONS, step)
    median = statistics.median
    return {
        "wall_s": (median([i.wall_s for i in invocations]), "s"),
        "setup_s": (median(setups), "s"),
        "fits_per_s": (median([i.fits / (i.wall_s - i.setup_s) for i in invocations]), "1/s"),
        "cpu_s": (median([i.cpu_s for i in invocations]), "s"),
        "peak_rss_mb": (median([i.peak_rss_mb for i in invocations]), "MB"),
    }


def measure_layers(run, seconds):
    def step():
        plain = run.invoke()
        trace_dir = tempfile.mkdtemp(prefix="trace", dir=run.work_dir)
        inv = run.invoke(trace_dir=trace_dir)
        metrics = layer_metrics(trace_dir, inv.wall_s, run.workload.workers)
        if not run.smoke and metrics["trace.top_level_share"][0] < MIN_TOP_LEVEL_SHARE:
            run.correct = False
        metrics["trace.overhead_share"] = (inv.wall_s / plain.wall_s - 1.0, "ratio")
        return metrics

    traced = repeat_until(seconds, 1, step)
    metrics = {
        name: (statistics.median(t[name][0] for t in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    metrics["harness.report_max_rel_drift"] = (run.max_drift, "ratio")
    return metrics


def environment(seed, variant):
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "variant": variant,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny epochs and rounds, against reference/smoke (self-tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "minifair", "cli.py")):
        print(f"error: no minifair sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads, here and in children
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    variant = args.seed % VARIANTS
    if not os.path.isfile(reference_path(workload, variant, args.smoke)):
        print(f"error: no reference report for {workload.name} variant {variant}", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, workload.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    run = Run(workload, variant, args.smoke, work_dir)
    if args.trace:
        metrics = measure_layers(run, args.seconds)
    else:
        metrics = measure_end_to_end(run, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6f} {unit}")
    print(f"{'failed_share':48s} {run.failed / run.attempted:16.6f} ratio "
          f"({run.failed} of {run.attempted} fits)")
    print("env:", json.dumps(environment(args.seed, variant), sort_keys=True))
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
