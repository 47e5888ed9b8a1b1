"""Self-tests of the benchmark, in smoke mode (few epochs and rounds).

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import run as bench
from check import TOLERANCE, check_report, compare
from run import BENCH_DIR, ROOT, SRC, WORK, WORKLOADS, Invocation, Run, reference_path

sys.path.insert(0, SRC)
os.makedirs(WORK, exist_ok=True)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def smoke_reference(name):
    with open(reference_path(WORKLOADS[name], 0, smoke=True), encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc = run_benchmark(
        ["--workload", workload, "--seed", "10", "--seconds", "1", "--trace", str(trace), "--smoke"]
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["harness.report_max_rel_drift"]["value"] == 0.0


def test_compare_rules():
    ref = {"a": 1.0, "n": 2, "t": math.inf, "p": math.nan, "s": "x"}
    assert compare(ref, copy.deepcopy(ref)) == (0.0, [])
    drift, bad = compare(ref, dict(ref, a=1.0 + 1e-9))
    assert 0.0 < drift <= TOLERANCE and bad == []
    assert compare(ref, dict(ref, a=1.001))[1] == [("a",)]
    assert compare(ref, dict(ref, n=2.0))[1] == [("n",)]
    assert compare(ref, dict(ref, t=-math.inf))[1] == [("t",)]
    assert compare(ref, dict(ref, p=0.0))[1] == [("p",)]
    assert compare(ref, {k: ref[k] for k in reversed(list(ref))})[1] == [()]
    assert compare(ref, {"a": 1.0})[1] and compare({"a": 1.0}, ref)[1]


def test_altered_run_report_is_a_failed_fit():
    ref = smoke_reference("law-run-all")
    assert check_report(ref, copy.deepcopy(ref), 2) == (18, 0, 0.0)
    got = copy.deepcopy(ref)
    got["methods"]["invfair"]["rmse"]["mean"] *= 1.01
    attempted, failed, drift = check_report(ref, got, 2)
    assert (attempted, failed) == (18, 2)
    assert drift == pytest.approx(0.01 / 1.01)
    got = copy.deepcopy(ref)
    got["t_tests"]["full-lr"]["mae"]["dof"] = 2
    assert check_report(ref, got, 2)[1] == 2
    got = copy.deepcopy(ref)
    got["task"] = "classification"
    assert check_report(ref, got, 2)[1] == 18
    assert check_report(ref, None, 2) == (18, 18, 0.0)


def test_altered_sweep_report_is_a_failed_fit():
    ref = smoke_reference("compas-sweep")
    got = copy.deepcopy(ref)
    lam = next(iter(got["lambdas"]))
    got["lambdas"][lam]["f1"]["variance"] = 1e-3
    assert check_report(ref, got, 1)[:2] == (3, 1)


def test_run_counts_a_report_that_differs_from_its_reference():
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        run = Run(WORKLOADS["compas-sweep"], 0, True, work_dir)
        lam = next(iter(run.reference["lambdas"]))
        run.reference["lambdas"][lam]["recall"]["mean"] += 0.5
        inv = run.invoke()
    finally:
        shutil.rmtree(work_dir)
    assert inv.exit_code == 0
    assert (run.attempted, run.failed, inv.fits) == (3, 1, 2)
    assert run.correct is False


class TracedRunStub:
    """A non-smoke run whose invocations all succeed in one second."""

    workload = WORKLOADS["law-run-all"]
    smoke = False
    correct = True
    max_drift = 0.0

    def __init__(self, work_dir):
        self.work_dir = work_dir

    def invoke(self, trace_dir=None):
        return Invocation(0, 1.0, 0.1, 1.0, 40.0)


@pytest.mark.parametrize("share, correct", [(0.95, True), (0.5, False)])
def test_traced_run_that_loses_top_level_coverage_is_incorrect(monkeypatch, share, correct):
    monkeypatch.setattr(bench, "layer_metrics",
                        lambda *args: {"trace.top_level_share": (share, "ratio")})
    work_dir = tempfile.mkdtemp(dir=WORK)
    try:
        run = TracedRunStub(work_dir)
        bench.measure_layers(run, 0)
    finally:
        shutil.rmtree(work_dir)
    assert run.correct is correct


def test_exits_nonzero_without_the_program():
    bare = tempfile.mkdtemp(dir=WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(
            ["--workload", "law-run-all", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
