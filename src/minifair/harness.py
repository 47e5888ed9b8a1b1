"""Experiment orchestration: seeded repeated runs, per-method aggregation,
paired t-tests against the reference method, lambda sweeps, and report files.

Every repeat r draws one 80/20 split with seed base_seed + r that all methods
share, so per-seed metric differences are valid paired samples. Diverged
training runs are recorded as failures and excluded from the statistics.
Repeats are independent, so a worker pool can execute them in parallel; the
aggregation order is fixed by repeat index either way and reports are
byte-stable for identical configurations.
"""
from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autoencoder import fit_autoencoder, pretrain
from .baselines import build_representation, fit_linear, fit_stumps, predict
from .config import (
    ConfigError,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_list,
    get_str,
)
from .data import DatasetSpec, builtin_spec, load_csv, preprocess, split
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


def experiment_config_from_dict(cfg: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed `key = value` pairs."""
    dataset = get_str(cfg, "dataset")
    if dataset is None:
        raise ConfigError("config needs a dataset")
    spec = builtin_spec(dataset)
    data_path = get_str(cfg, "data.path")
    if data_path is None:
        raise ConfigError("config needs data.path")
    loss_kind = get_str(
        cfg, "train.loss_kind",
        "smooth_l1" if spec.task == "regression" else "binary_cross_entropy",
    )
    train_cfg = TrainConfig(
        lam=get_float(cfg, "train.lambda", DEFAULT_LAMBDA.get(dataset, 1.0)),
        epochs=get_int(cfg, "train.epochs", 200),
        batch_size=get_int(cfg, "train.batch_size", 64),
        lr=get_float(cfg, "train.lr", 1e-3),
        h_slope=get_float(cfg, "train.h_slope", 0.01),
        adversary_mode=get_str(cfg, "train.adversary_mode", "own_loss"),
        fair_mode=get_str(cfg, "train.fair_mode", "own_loss"),
        loss_kind=loss_kind,
        z_dim=get_int(cfg, "train.z_dim", 8),
        encoder_hidden=get_int(cfg, "train.encoder_hidden", 32),
        predictor_hidden=get_int(cfg, "train.predictor_hidden", 16),
        steps_per_player=get_int(cfg, "train.steps_per_player", 1),
    )
    return ExperimentConfig(
        spec=spec,
        data_path=data_path,
        methods=tuple(get_list(cfg, "methods", METHODS)),
        repeats=get_int(cfg, "repeats", 100),
        base_seed=get_int(cfg, "seed", 0),
        train=train_cfg,
        ae_e=get_int(cfg, "ae.e", 4),
        ae_epochs=get_int(cfg, "ae.epochs", 100),
        ae_input=get_str(cfg, "ae.input", "sensitive_only"),
        baseline_ae_latent=get_int(cfg, "baseline.ae_latent", 8),
        baseline_ae_epochs=get_int(cfg, "baseline.ae_epochs", 100),
        boost_rounds=get_int(cfg, "boost.rounds", 100),
        boost_lr=get_float(cfg, "boost.learning_rate", 0.1),
        cv_sqrt=get_bool(cfg, "metrics.cv_sqrt", False),
        workers=get_int(cfg, "workers", 1),
        sweep_lambdas=get_float_list(cfg, "sweep.lambdas", None),
        out_path=get_str(cfg, "out.path"),
        out_format=get_str(cfg, "out.format", "csv"),
        history_dir=get_str(cfg, "out.history_dir"),
    )


@dataclass
class RunResult:
    method: str
    seed: int
    metrics: dict | None
    seconds: float
    failed: bool
    error: str = ""


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


def evaluate_scores(scores, test_ds, cv_sqrt=False) -> dict:
    """Metric dict for raw model scores on a test split.

    Classification scores are logits; the decision threshold is sigmoid 0.5,
    i.e. score >= 0. Distribution distances compare prediction distributions
    across each sensitive attribute's groups and average per attribute.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    y = test_ds.y
    if test_ds.task == "regression":
        rmse, mae, r2 = regression_metrics(scores, y)
        w_vals = []
        m_vals = []
        for col in test_ds.S_labels.T:
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
    b, _ = benefits(hard, y)
    cv = generalized_entropy_from_benefits(b, 2.0)
    ti = generalized_entropy_from_benefits(b, 1.0)
    out = {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "balanced_acc": bacc,
        "cv": cv,
        "ti": ti,
    }
    if cv_sqrt:
        out["cv_sqrt"] = math.sqrt(2.0 * cv)
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
    """All methods on one shared split. Top level so worker pools can pickle it."""
    cfg, raw, repeat_index = args
    seed = cfg.base_seed + repeat_index
    sp = split(raw.n_rows, seed)
    full = preprocess(raw, cfg.spec, sp.train_indices)
    train_ds = full.take(sp.train_indices)
    test_ds = full.take(sp.test_indices)

    needs_trained = any(m == "invfair" or m.startswith("invenc") for m in cfg.methods)
    needs_baseline_ae = any(m.startswith("ae-") for m in cfg.methods)

    trained = None
    train_error = None
    if needs_trained:
        try:
            # the embedding must compress, so cap e below the one-hot width
            e_dim = min(cfg.ae_e, train_ds.S_onehot.shape[1] - 1)
            sens_ae = pretrain(
                train_ds.S_onehot,
                e=e_dim,
                epochs=cfg.ae_epochs,
                seed=seed,
                X=train_ds.X if cfg.ae_input == "all_features" else None,
                input_mode=cfg.ae_input,
            )
            fitted = train(train_ds, sens_ae, replace(cfg.train, seed=seed))
            trained = fitted.model
            if cfg.history_dir:
                _dump_history(cfg.history_dir, seed, fitted.train_history)
        except TrainingDiverged as exc:
            train_error = str(exc)
    baseline_ae = None
    if needs_baseline_ae:
        baseline_ae = fit_autoencoder(
            np.hstack([train_ds.X, train_ds.S_onehot]),
            cfg.baseline_ae_latent,
            epochs=cfg.baseline_ae_epochs,
            seed=seed,
        )

    results = []
    for method in cfg.methods:
        started = time.perf_counter()
        try:
            scores = _score_method(
                method, cfg, train_ds, test_ds, trained, baseline_ae, train_error
            )
            metrics = evaluate_scores(scores, test_ds, cfg.cv_sqrt)
            results.append(
                RunResult(method, seed, metrics, time.perf_counter() - started, False)
            )
        except MethodFailed as exc:
            results.append(
                RunResult(method, seed, None, time.perf_counter() - started, True, str(exc))
            )
    return results


def _dump_history(history_dir, seed, history):
    os.makedirs(history_dir, exist_ok=True)
    path = os.path.join(history_dir, f"history_invfair_seed{seed}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "fair_loss", "adversary_loss", "gap_term"])
        for epoch, stats in enumerate(history):
            writer.writerow(
                [epoch, repr(stats.fair_loss), repr(stats.adversary_loss), repr(stats.gap_term)]
            )


def run_experiment(cfg: ExperimentConfig) -> AggregateReport:
    raw = load_csv(cfg.data_path, cfg.spec)
    payloads = [(cfg, raw, r) for r in range(cfg.repeats)]
    if cfg.workers > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            per_repeat = pool.map(run_one_repeat, payloads)
    else:
        per_repeat = [run_one_repeat(p) for p in payloads]
    return aggregate([result for batch in per_repeat for result in batch], cfg)


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
    """Per-lambda AggregateReport for invfair only, splits shared across lambdas."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda list must be non-empty")
    reports = {}
    for lam in lambdas:
        sub = replace(cfg, methods=("invfair",), train=replace(cfg.train, lam=lam))
        reports[lam] = run_experiment(sub)
    return reports


def emit_report(report: AggregateReport, fmt: str, path) -> None:
    """Write an aggregate report as CSV (method,metric,mean,variance,n rows)
    or JSON (methods, t_tests, reference, failures). Bitwise-stable."""
    if not report.methods:
        raise ValueError("report has no successful methods to emit")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["method", "metric", "mean", "variance", "n"])
            for method, stats in report.methods.items():
                for name in report.metric_names:
                    s = stats[name]
                    writer.writerow([method, name, repr(s.mean), repr(s.variance), s.n])
    elif fmt == "json":
        payload = {
            "task": report.task,
            "repeats": report.repeats,
            "reference": report.reference,
            "methods": {
                method: {
                    name: {
                        "mean": stats[name].mean,
                        "variance": stats[name].variance,
                        "std": stats[name].std,
                        "n": stats[name].n,
                    }
                    for name in report.metric_names
                }
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
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def emit_sweep_report(per_lambda: dict, fmt: str, path) -> None:
    """Long-format sweep table: one row per (lambda, metric)."""
    if not per_lambda:
        raise ValueError("sweep produced no reports")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["lambda", "metric", "mean", "variance", "n"])
            for lam, report in per_lambda.items():
                stats = report.methods.get("invfair")
                if stats is None:
                    continue
                for name in report.metric_names:
                    s = stats[name]
                    writer.writerow([repr(float(lam)), name, repr(s.mean), repr(s.variance), s.n])
    elif fmt == "json":
        payload = {"lambdas": {}}
        for lam, report in per_lambda.items():
            stats = report.methods.get("invfair")
            if stats is None:
                payload["lambdas"][repr(float(lam))] = {"failed": True}
                continue
            payload["lambdas"][repr(float(lam))] = {
                name: {
                    "mean": stats[name].mean,
                    "variance": stats[name].variance,
                    "std": stats[name].std,
                    "n": stats[name].n,
                }
                for name in report.metric_names
            }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def score_prediction_file(path, cv_sqrt=False):
    """Apply the metric suite to an external predictions CSV.

    Columns: prediction, target, optional group. Targets all in {0, 1} mean
    classification (predictions are probabilities or hard labels, thresholded
    at 0.5); anything else means regression, where a group column adds the
    distribution distances.
    """
    predictions = []
    targets = []
    groups = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"prediction", "target"} <= set(reader.fieldnames):
            raise ValueError("predictions CSV needs 'prediction' and 'target' columns")
        has_group = "group" in reader.fieldnames
        for row in reader:
            predictions.append(float(row["prediction"]))
            targets.append(float(row["target"]))
            if has_group:
                groups.append(row["group"])
    pred = np.array(predictions)
    y = np.array(targets)
    if pred.size == 0:
        raise ValueError("predictions CSV has no rows")
    if np.all((y == 0.0) | (y == 1.0)):
        hard = (pred >= 0.5).astype(float)
        precision, recall, f1, bacc = classification_metrics(hard, y)
        b, _ = benefits(hard, y)
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
        task = "classification"
    else:
        rmse, mae, r2 = regression_metrics(pred, y)
        out = {"rmse": rmse, "mae": mae, "r2": r2}
        if groups:
            labels = {g: i for i, g in enumerate(sorted(set(groups)))}
            w, m = group_fairness(pred, [labels[g] for g in groups])
            out["wasserstein"] = w
            out["gaussian_mmd"] = m
        task = "regression"
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
