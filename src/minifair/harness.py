"""Experiment orchestration: seeded repeated runs, per-method aggregation,
paired t-tests against the reference method, lambda sweeps, and report files.

Every repeat r draws one 80/20 split with seed base_seed + r that all methods
share, so per-seed metric differences are valid paired samples. Diverged
training runs are recorded as failures and excluded from the statistics.
Repeats are independent, so a worker pool can execute them in parallel; the
aggregation order is fixed by repeat index either way and reports are
byte-stable for identical configurations. A lambda sweep is one pass over the
repeats: each repeat builds its split, preprocessing and sensitive embedder
once and trains the minimax models of all lambdas together, in lock-step.
"""
from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autoencoder import AE_INPUT_MODES, fit_autoencoder, pretrain
from .baselines import build_representation, fit_linear, fit_stumps, predict
from .config import ConfigError, parse_fields
from .data import DatasetSpec, load_csv, preprocess, split
from .metrics import (
    benefits,
    classification_metrics,
    generalized_entropy_from_benefits,
    group_fairness,
    regression_metrics,
)
from .trainer import TrainConfig, TrainingDiverged, fair_predict, train

METHODS = (
    "full-lr",
    "full-gboost",
    "unaware-lr",
    "unaware-gboost",
    "ae-lr",
    "ae-gboost",
    "invenc-lr",
    "invenc-gboost",
    "invfair",
)

REGRESSION_METRIC_NAMES = ("rmse", "mae", "r2", "wasserstein", "gaussian_mmd")
CLASSIFICATION_METRIC_NAMES = ("precision", "recall", "f1", "balanced_acc", "cv", "ti")

REPORT_FORMATS = ("csv", "json")

# Gap-penalty weight when the config does not set one: the large-scale
# benchmark needs a much stronger penalty than the two small ones.
DEFAULT_LAMBDA = {"adult": 100.0}


@dataclass
class ExperimentConfig:
    spec: DatasetSpec
    data_path: str
    methods: tuple = METHODS
    repeats: int = 100
    base_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    ae_e: int = 4
    ae_epochs: int = 100
    ae_input: str = "sensitive_only"
    baseline_ae_latent: int = 8
    baseline_ae_epochs: int = 100
    boost_rounds: int = 100
    boost_lr: float = 0.1
    cv_sqrt: bool = False
    workers: int = 1
    sweep_lambdas: list | None = None
    out_path: str | None = None
    out_format: str = "csv"
    history_dir: str | None = None

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.methods:
            raise ValueError("method list must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"method list {list(self.methods)} names a method twice")
        if self.ae_input not in AE_INPUT_MODES:
            raise ValueError(
                f"unknown ae.input {self.ae_input!r}; expected one of {AE_INPUT_MODES}"
            )
        if self.out_format not in REPORT_FORMATS:
            raise ValueError(_unknown_format(self.out_format))
        for key, value in (
            ("ae.e", self.ae_e),
            ("ae.epochs", self.ae_epochs),
            ("baseline.ae_latent", self.baseline_ae_latent),
            ("baseline.ae_epochs", self.baseline_ae_epochs),
            ("boost.rounds", self.boost_rounds),
        ):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        if not math.isfinite(self.boost_lr):
            raise ValueError(f"boost.learning_rate must be finite, got {self.boost_lr!r}")
        if self.spec.task == "regression" and self.train.loss_kind == "binary_cross_entropy":
            raise ValueError(
                f"train.loss_kind binary_cross_entropy needs 0/1 targets, "
                f"but {self.spec.name} is a regression dataset"
            )


def experiment_config_from_dict(values: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed `key = value` pairs. A key that
    is not set keeps its dataclass field's default, except that the gap
    weight and the loss follow the dataset."""
    fields, train_fields = parse_fields(values)
    for key, name in (("dataset", "spec"), ("data.path", "data_path")):
        if name not in fields:
            raise ConfigError(f"config needs {key}")
    spec = fields["spec"]
    if spec.name in DEFAULT_LAMBDA:
        train_fields.setdefault("lam", DEFAULT_LAMBDA[spec.name])
    if spec.task == "classification":
        train_fields.setdefault("loss_kind", "binary_cross_entropy")
    return ExperimentConfig(**fields, train=TrainConfig(**train_fields))


@dataclass
class RunResult:
    method: str
    seed: int
    metrics: dict | None
    seconds: float
    failed: bool
    error: str = ""
    lam: float | None = None  # gap weight of the model it used; None if it uses none


@dataclass(frozen=True)
class MetricStats:
    mean: float
    variance: float
    std: float
    n: int


@dataclass
class AggregateReport:
    task: str
    metric_names: tuple
    methods: dict       # method -> {metric -> MetricStats}
    t_tests: dict       # method -> {metric -> TTestResult}
    reference: str | None
    failures: dict      # method -> failed-run count
    repeats: int


class MethodFailed(RuntimeError):
    pass


def metric_names_for(task: str, cv_sqrt: bool) -> tuple:
    if task == "regression":
        return REGRESSION_METRIC_NAMES
    return CLASSIFICATION_METRIC_NAMES + (("cv_sqrt",) if cv_sqrt else ())


def evaluate_scores(scores, y, S_labels, task, cv_sqrt=False) -> dict:
    """Metric dict for raw model scores against targets `y`.

    Classification scores are logits; the decision threshold is sigmoid 0.5,
    i.e. score >= 0. `S_labels` holds one integer label column per sensitive
    attribute. Distribution distances compare prediction distributions across
    each attribute's groups and average per attribute.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if task == "regression":
        rmse, mae, r2 = regression_metrics(scores, y)
        w_vals = []
        m_vals = []
        for col in S_labels.T:
            if np.all(col == col[0]):
                continue  # attribute has a single group in this split
            w, m = group_fairness(scores, col)
            w_vals.append(w)
            m_vals.append(m)
        if not w_vals:
            raise MethodFailed("no sensitive attribute has two groups in the test split")
        return {
            "rmse": rmse,
            "mae": mae,
            "r2": r2,
            "wasserstein": float(np.mean(w_vals)),
            "gaussian_mmd": float(np.mean(m_vals)),
        }
    # not np.unique: on floats it imports numpy.ma, ~1.4 MB of peak RSS
    if np.all(y == y[0]):
        raise MethodFailed("the test split has a single class")
    hard = (scores >= 0.0).astype(float)
    precision, recall, f1, bacc = classification_metrics(hard, y)
    b = benefits(hard, y)
    out = {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "balanced_acc": bacc,
        "cv": generalized_entropy_from_benefits(b, 2.0),
        "ti": generalized_entropy_from_benefits(b, 1.0),
    }
    if cv_sqrt:
        out["cv_sqrt"] = math.sqrt(2.0 * out["cv"])
    return out


def _parse_method(method: str):
    kind, _, downstream = method.partition("-")
    return kind, downstream


def _score_method(method, cfg, train_ds, test_ds, trained, baseline_ae, train_error):
    if method == "invfair":
        if trained is None:
            raise MethodFailed(train_error or "invariant model unavailable")
        return fair_predict(trained, test_ds.X)
    kind, downstream = _parse_method(method)
    if kind == "invenc" and trained is None:
        raise MethodFailed(train_error or "invariant model unavailable")
    rep_train = build_representation(kind, train_ds, trained=trained, autoencoder=baseline_ae)
    rep_test = build_representation(kind, test_ds, trained=trained, autoencoder=baseline_ae)
    if downstream == "lr":
        link = "identity" if train_ds.task == "regression" else "logistic"
        model = fit_linear(rep_train, train_ds.y, link)
    else:
        model = fit_stumps(
            rep_train, train_ds.y, train_ds.task, cfg.boost_rounds, cfg.boost_lr
        )
    return predict(model, rep_test)


def run_one_repeat(args):
    """All methods on one shared split, for every gap weight λ of the task.

    `args` is (cfg, raw, repeat_index), which trains at cfg.train.lam, or
    (cfg, raw, repeat_index, lambdas). The split, the preprocessing, the
    sensitive embedder and the baseline autoencoder do not depend on λ and are
    built once; the minimax model is trained for every λ at once, in
    lock-step, and the methods that use it are scored once per λ. Top level
    so worker pools can pickle it.
    """
    cfg, raw, repeat_index, *sweep = args
    lambdas = sweep[0] if sweep else (cfg.train.lam,)
    seed = cfg.base_seed + repeat_index
    sp = split(raw.n_rows, seed)
    full = preprocess(raw, cfg.spec, sp.train_indices)
    train_ds = full.take(sp.train_indices)
    test_ds = full.take(sp.test_indices)

    baseline_ae = None
    if any(m.startswith("ae-") for m in cfg.methods):
        baseline_ae = fit_autoencoder(
            np.hstack([train_ds.X, train_ds.S_onehot]),
            cfg.baseline_ae_latent,
            epochs=cfg.baseline_ae_epochs,
            seed=seed,
        )

    def run_method(method, lam, trained=None, train_error=None):
        started = time.perf_counter()
        try:
            scores = _score_method(
                method, cfg, train_ds, test_ds, trained, baseline_ae, train_error
            )
            metrics = evaluate_scores(
                scores, test_ds.y, test_ds.S_labels, test_ds.task, cfg.cv_sqrt
            )
        except MethodFailed as exc:
            return RunResult(
                method, seed, None, time.perf_counter() - started, True, str(exc), lam
            )
        return RunResult(method, seed, metrics, time.perf_counter() - started, False, "", lam)

    # methods that score with the minimax model depend on λ
    trained_methods = [m for m in cfg.methods if m == "invfair" or m.startswith("invenc")]
    results = [run_method(m, None) for m in cfg.methods if m not in trained_methods]
    if not trained_methods:
        return results
    # the embedding must compress, so cap e below the one-hot width
    e_dim = min(cfg.ae_e, train_ds.S_onehot.shape[1] - 1)
    sens_ae = pretrain(
        train_ds.S_onehot,
        e=e_dim,
        epochs=cfg.ae_epochs,
        seed=seed,
        X=train_ds.X,
        input_mode=cfg.ae_input,
    )
    outcomes = train(train_ds, sens_ae, replace(cfg.train, seed=seed), lambdas)
    for lam, fitted in zip(lambdas, outcomes):
        trained = train_error = None
        if isinstance(fitted, TrainingDiverged):
            train_error = str(fitted)
        else:
            trained = fitted.model
            if cfg.history_dir:
                lam_tag = f"_lambda{float(lam)!r}" if sweep else ""
                name = f"history_invfair{lam_tag}_seed{seed}.csv"
                _dump_history(cfg.history_dir, name, fitted.train_history)
        results += [run_method(m, lam, trained, train_error) for m in trained_methods]
    return results


def _dump_history(history_dir, name, history):
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "fair_loss", "adversary_loss", "gap_term"])
        for epoch, stats in enumerate(history):
            writer.writerow(
                [epoch, repr(stats.fair_loss), repr(stats.adversary_loss), repr(stats.gap_term)]
            )


def run_experiment(cfg: ExperimentConfig, lambdas=None):
    """Every repeat of `cfg`, one task per repeat, serially or in a worker pool.

    Without `lambdas` the model trains at cfg.train.lam and the result is one
    AggregateReport. With a list of gap weights, each repeat trains once per λ
    on its shared split and embedder, and the result is {λ: AggregateReport};
    methods that do not use the trained model are scored once per repeat and
    enter every λ's report.
    """
    raw = load_csv(cfg.data_path, cfg.spec)
    sweep = () if lambdas is None else (tuple(lambdas),)
    payloads = [(cfg, raw, r) + sweep for r in range(cfg.repeats)]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            per_repeat = pool.map(run_one_repeat, payloads)
    else:
        per_repeat = [run_one_repeat(p) for p in payloads]
    results = [result for batch in per_repeat for result in batch]
    if lambdas is None:
        return aggregate(results, cfg)
    return {
        lam: aggregate([r for r in results if r.lam is None or r.lam == lam], cfg)
        for lam in lambdas
    }


def aggregate(results, cfg: ExperimentConfig) -> AggregateReport:
    """Mean/variance per method over successful runs plus paired t-tests.

    Variance is the population variance over runs (0 for a single repeat).
    The reference method for t-tests is invfair when requested, otherwise the
    first configured method; tests use only seeds where both methods
    succeeded and need at least two shared seeds.
    """
    from .stats import paired_t_test

    names = metric_names_for(cfg.spec.task, cfg.cv_sqrt)
    by_method = {m: {} for m in cfg.methods}  # method -> seed -> metrics
    failures = {m: 0 for m in cfg.methods}
    for result in results:
        if result.failed:
            failures[result.method] += 1
        else:
            by_method[result.method][result.seed] = result.metrics

    methods_stats = {}
    for method in cfg.methods:
        runs = by_method[method]
        if not runs:
            continue
        stats = {}
        for name in names:
            values = np.array([runs[s][name] for s in sorted(runs)])
            variance = float(values.var())
            stats[name] = MetricStats(
                float(values.mean()), variance, math.sqrt(variance), values.size
            )
        methods_stats[method] = stats

    reference = "invfair" if "invfair" in methods_stats else None
    if reference is None and methods_stats:
        reference = next(iter(methods_stats))
    t_tests = {}
    if reference is not None:
        ref_runs = by_method[reference]
        for method in cfg.methods:
            if method == reference or method not in methods_stats:
                continue
            shared = sorted(set(ref_runs) & set(by_method[method]))
            if len(shared) < 2:
                continue
            t_tests[method] = {
                name: paired_t_test(
                    [ref_runs[s][name] for s in shared],
                    [by_method[method][s][name] for s in shared],
                )
                for name in names
            }
    return AggregateReport(
        task=cfg.spec.task,
        metric_names=names,
        methods=methods_stats,
        t_tests=t_tests,
        reference=reference,
        failures=failures,
        repeats=cfg.repeats,
    )


def lambda_sweep(cfg: ExperimentConfig, lambdas) -> dict:
    """Per-λ AggregateReport for invfair only, from one pass over the repeats.

    Each repeat's split, preprocessing and sensitive embedder are shared by
    every λ; a λ whose training diverges fails only its own entry.
    """
    lambdas = list(dict.fromkeys(lambdas))
    if not lambdas:
        raise ValueError("lambda list must be non-empty")
    if not all(lam >= 0.0 for lam in lambdas):  # also rejects NaN
        raise ValueError("lambda must be >= 0")
    return run_experiment(replace(cfg, methods=("invfair",)), lambdas)


def emit_report(report: AggregateReport, fmt: str, path) -> None:
    """Write an aggregate report as CSV (method,metric,mean,variance,n rows)
    or JSON (methods, t_tests, reference, failures). Bitwise-stable."""
    if not report.methods:
        raise ValueError("report has no successful methods to emit")
    if fmt == "csv":
        _write_csv(path, "method", (
            (method, stats, report.metric_names) for method, stats in report.methods.items()
        ))
    elif fmt == "json":
        _write_json(path, {
            "task": report.task,
            "repeats": report.repeats,
            "reference": report.reference,
            "methods": {
                method: _stats_json(stats, report.metric_names)
                for method, stats in report.methods.items()
            },
            "t_tests": {
                method: {
                    name: {
                        "t": tests[name].t_statistic,
                        "dof": tests[name].degrees_of_freedom,
                        "p": tests[name].p_value,
                    }
                    for name in report.metric_names
                }
                for method, tests in report.t_tests.items()
            },
            "failures": report.failures,
        })
    else:
        raise ValueError(_unknown_format(fmt))


def emit_sweep_report(per_lambda: dict, fmt: str, path) -> None:
    """Long-format sweep table: one row per (lambda, metric)."""
    if not per_lambda:
        raise ValueError("sweep produced no reports")
    # λ key -> (invfair stats or None when every repeat failed, metric names)
    invfair = {
        repr(float(lam)): (report.methods.get("invfair"), report.metric_names)
        for lam, report in per_lambda.items()
    }
    if fmt == "csv":
        _write_csv(path, "lambda", (
            (lam, stats, names) for lam, (stats, names) in invfair.items() if stats is not None
        ))
    elif fmt == "json":
        _write_json(path, {"lambdas": {
            lam: {"failed": True} if stats is None else _stats_json(stats, names)
            for lam, (stats, names) in invfair.items()
        }})
    else:
        raise ValueError(_unknown_format(fmt))


def _unknown_format(fmt) -> str:
    return f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}"


def _stats_json(stats, names) -> dict:
    """{metric: {mean, variance, std, n}} of one method's MetricStats."""
    return {name: asdict(stats[name]) for name in names}


def _write_csv(path, key_column, blocks) -> None:
    """Header plus one `key,metric,mean,variance,n` row per metric of each
    (key, stats, metric names) block."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([key_column, "metric", "mean", "variance", "n"])
        for key, stats, names in blocks:
            for name in names:
                s = stats[name]
                writer.writerow([key, name, repr(s.mean), repr(s.variance), s.n])


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def score_prediction_file(path) -> AggregateReport:
    """Apply `evaluate_scores` to an external predictions CSV.

    Columns: `target`, one score column and one column per sensitive
    attribute. The score column states the task: `prediction` holds
    regression scores, `logit` holds classification logits, thresholded at 0
    as `run` does. Each attribute's labels are numbered in sorted order, as
    preprocessing numbers them.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        columns = reader.fieldnames or []
        score_columns = [c for c in ("prediction", "logit") if c in columns]
        if "target" not in columns or len(score_columns) != 1:
            raise ValueError(
                "predictions CSV needs a 'target' column and exactly one of "
                "'prediction' (regression) or 'logit' (classification)"
            )
        (score_column,) = score_columns
        attrs = [c for c in columns if c not in ("target", score_column)]
        rows = list(reader)
    if not rows:
        raise ValueError("predictions CSV has no rows")
    for i, row in enumerate(rows, start=1):
        # DictReader keys extra cells by None and fills missing ones with None
        if None in row or None in row.values():
            raise ValueError(f"predictions CSV row {i} does not have {len(columns)} cells")
    scores = np.array([float(row[score_column]) for row in rows])
    y = np.array([float(row["target"]) for row in rows])
    label_cols = []
    for attr in attrs:
        lookup = {c: i for i, c in enumerate(sorted({row[attr] for row in rows}))}
        label_cols.append([lookup[row[attr]] for row in rows])
    S_labels = np.array(label_cols, dtype=int).T.reshape(len(rows), len(attrs))
    task = "regression" if score_column == "prediction" else "classification"
    out = evaluate_scores(scores, y, S_labels, task)
    stats = {name: MetricStats(value, 0.0, 0.0, 1) for name, value in out.items()}
    return AggregateReport(
        task=task,
        metric_names=tuple(out),
        methods={"external": stats},
        t_tests={},
        reference=None,
        failures={"external": 0},
        repeats=1,
    )
