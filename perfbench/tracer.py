"""Per-layer tracing of one minifair process, installed from outside.

Callers import `forward`, `train`, `fit_stumps` and the rest by name, so each
wrapper is installed on every module attribute a caller looks up, not only on
the defining module. Every traced function keeps three numbers per process:
calls, inclusive seconds and child seconds (self time is the difference).
Calls of the cheap, hot functions are aggregated only; every other call also
records a span (name, start, end, depth) on the monotonic clock, which is
shared by all processes of the machine.

Pool workers are forked, inherit the wrappers and skip `atexit`, so a worker
resets its inherited numbers after the fork and rewrites its own trace file
after each task it finishes. `layer_metrics` merges the files of one traced
invocation into the per-layer metrics.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import time

# (layer name, defining module, attribute, owners whose attribute callers read)
TRACED = (
    ("data.load_csv", "data", "load_csv", ("harness",)),
    ("data.split", "data", "split", ("harness",)),
    ("data.preprocess", "data", "preprocess", ("harness",)),
    ("neural.forward", "neural", "forward", ("trainer", "autoencoder", "baselines")),
    ("neural.backward", "neural", "backward", ("trainer", "autoencoder")),
    ("neural.adam_step", "neural", "adam_step", ("trainer", "autoencoder")),
    ("autoencoder.pretrain", "autoencoder", "pretrain", ("harness",)),
    ("autoencoder.fit_autoencoder", "autoencoder", "fit_autoencoder", ("harness", "autoencoder")),
    ("autoencoder.build_embedding_table", "autoencoder", "build_embedding_table", ("trainer",)),
    ("autoencoder.EmbeddingTable.lookup_rows", "autoencoder", "EmbeddingTable.lookup_rows", ()),
    ("trainer.train", "trainer", "train", ("harness",)),
    ("baselines.build_representation", "baselines", "build_representation", ("harness",)),
    ("baselines.fit_linear", "baselines", "fit_linear", ("harness",)),
    ("baselines.fit_stumps", "baselines", "fit_stumps", ("harness",)),
    ("baselines.predict", "baselines", "predict", ("harness",)),
    ("harness.evaluate_scores", "harness", "evaluate_scores", ("harness",)),
    ("metrics.group_fairness", "metrics", "group_fairness", ("harness",)),
    # harness.aggregate imports paired_t_test lazily, from the stats module
    ("stats.paired_t_test", "stats", "paired_t_test", ("stats",)),
    # pool.map pickles run_one_repeat by name, which finds this wrapper
    ("harness.run_one_repeat", "harness", "run_one_repeat", ("harness",)),
    ("harness.run_experiment", "harness", "run_experiment", ("harness", "cli")),
    ("harness.aggregate", "harness", "aggregate", ("harness",)),
    ("harness.emit_report", "harness", "emit_report", ("cli",)),
    ("harness.emit_sweep_report", "harness", "emit_sweep_report", ("cli",)),
    ("cli.main", "cli", "main", ("cli",)),
)
LAYER_NAMES = tuple(name for name, *_ in TRACED)

# Called ~10^5 times per run: aggregated, no span per call.
HOT = frozenset({
    "neural.forward", "neural.backward", "neural.adam_step",
    "autoencoder.EmbeddingTable.lookup_rows",
})


def _net_weights(net):
    """Sum of in_dim * out_dim over the layers of an MLP."""
    return sum(layer.weights.size for layer in net.layers)


def _count_forward(counters, args, kwargs):
    net, batch = args[0], args[1]
    rows = len(batch)
    counters["neural.forward.rows"] += rows
    counters["neural.flops_computed"] += 2 * rows * _net_weights(net)


def _count_backward(counters, args, kwargs):
    # backward re-runs the forward pass, then forms d_weights and d_inputs:
    # three matmuls of the forward pass's size per layer
    net, batch = args[0], args[1]
    counters["neural.flops_computed"] += 3 * 2 * len(batch) * _net_weights(net)


def _count_train(counters, args, kwargs):
    data, cfg = args[0], args[2]
    batches = -(-data.n_rows // cfg.batch_size)
    counters["trainer.train.steps"] += cfg.epochs * batches


def _count_stumps(counters, args, kwargs):
    import numpy as np

    features = np.asarray(args[0], dtype=float)
    rounds = args[3] if len(args) > 3 else kwargs.get("rounds", 100)
    gaps = sum(np.unique(features[:, j]).size - 1 for j in range(features.shape[1]))
    counters["baselines.fit_stumps.boundaries_computed"] += rounds * gaps


COUNTERS = {
    "neural.forward": _count_forward,
    "neural.backward": _count_backward,
    "trainer.train": _count_train,
    "baselines.fit_stumps": _count_stumps,
}
COUNTER_NAMES = (
    "neural.forward.rows",
    "neural.flops_computed",
    "trainer.train.steps",
    "baselines.fit_stumps.boundaries_computed",
)


class Tracer:
    """Wrappers plus the in-memory numbers of the current process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.spans = []
        self.stack = []

    def install(self):
        """Replace every traced function on its owners; returns the traced cli.main."""
        import importlib

        wrapped = {}
        for name, module, attr, owners in TRACED:
            mod = importlib.import_module(f"minifair.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            fn = self._wrap(name, getattr(mod, attr))
            wrapped[name] = fn
            for owner in owners:
                setattr(importlib.import_module(f"minifair.{owner}"), attr, fn)
        os.register_at_fork(after_in_child=self._reset_in_child)
        return wrapped["cli.main"]

    def _wrap(self, name, fn):
        rec = self.stats[name]
        stack = self.stack
        spans = self.spans
        clock = time.monotonic
        hot = name in HOT
        count = COUNTERS.get(name)
        counters = self.counters
        flush = name == "harness.run_one_repeat"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(counters, args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
                if not hot:
                    spans.append((name, start, end, len(stack)))
                if flush and os.getpid() != self.main_pid:
                    self.write()

        return wrapper

    def _reset_in_child(self):
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        for key in self.counters:
            self.counters[key] = 0
        del self.spans[:]
        del self.stack[:]

    def write(self):
        """Write this process's numbers to <out_dir>/trace-<pid>.json."""
        payload = {
            "pid": os.getpid(),
            "main": os.getpid() == self.main_pid,
            "stats": self.stats,
            "counters": self.counters,
            "spans": self.spans,
        }
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(path + ".tmp", path)


def layer_metrics(trace_dir, wall_s, workers):
    """{metric: (value, unit)} merged over the main process and its workers."""
    traces = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    main = next(t for t in traces if t["main"])
    stats = {name: [sum(t["stats"][name][i] for t in traces) for i in range(3)]
             for name in LAYER_NAMES}
    counters = {name: sum(t["counters"][name] for t in traces) for name in COUNTER_NAMES}

    out = {}
    for name in LAYER_NAMES:
        calls, total, child = stats[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (total, "s")
        out[f"{name}.self_s"] = (total - child, "s")

    for name in ("neural.forward", "neural.backward", "neural.adam_step"):
        calls, total, _ = stats[name]
        out[f"{name}.us_per_call"] = (_per(total, calls, 1e6), "us")
    out["neural.forward.rows"] = (counters["neural.forward.rows"], "count")
    out["neural.flops_computed"] = (counters["neural.flops_computed"], "flop")
    steps = counters["trainer.train.steps"]
    out["trainer.train.steps"] = (steps, "count")
    out["trainer.train.us_per_step"] = (_per(stats["trainer.train"][1], steps, 1e6), "us")
    boundaries = counters["baselines.fit_stumps.boundaries_computed"]
    out["baselines.fit_stumps.boundaries_computed"] = (boundaries, "count")
    out["baselines.fit_stumps.ns_per_boundary"] = (
        _per(stats["baselines.fit_stumps"][1], boundaries, 1e9), "ns")

    spans = [s for t in traces for s in t["spans"]]
    repeats = [end - start for name, start, end, _ in spans if name == "harness.run_one_repeat"]
    out["harness.run_one_repeat.s_p50"] = (statistics.median(repeats), "s")
    out["harness.run_one_repeat.s_max"] = (max(repeats), "s")
    # repeat phase: run_experiment minus its CSV loads and aggregation, in the main process
    main_s = {name: main["stats"][name][1] for name in LAYER_NAMES}
    phase = main_s["harness.run_experiment"] - main_s["data.load_csv"] - main_s["harness.aggregate"]
    out["harness.pool.busy_share"] = (sum(repeats) / (workers * phase), "ratio")
    top = sum(end - start for _, start, end, depth in main["spans"] if depth == 0)
    out["trace.top_level_share"] = (top / wall_s, "ratio")
    return out


def _per(total, count, scale):
    """total / count in scaled units, 0 for a layer that was never called."""
    return total / count * scale if count else 0.0
