import json

import numpy as np
import pytest

from minifair.data import builtin_spec
from minifair.harness import (
    AggregateReport,
    ExperimentConfig,
    MetricStats,
    RunResult,
    aggregate,
    emit_report,
    emit_sweep_report,
    evaluate_scores,
    experiment_config_from_dict,
    lambda_sweep,
    metric_names_for,
    run_experiment,
    score_prediction_file,
)
from minifair.synthdata import generate_compas_csv, generate_law_csv
from minifair.trainer import TrainConfig


@pytest.fixture(scope="session")
def law_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("harness") / "law.csv"
    generate_law_csv(path, n=300, seed=1)
    return str(path)


@pytest.fixture(scope="session")
def compas_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("harness") / "compas.csv"
    generate_compas_csv(path, n=400, seed=1)
    return str(path)


def fast_config(data_path, dataset="law", methods=("unaware-lr", "invfair"), repeats=2,
                **overrides):
    train = TrainConfig(
        epochs=3, batch_size=64, z_dim=4, encoder_hidden=16, predictor_hidden=8,
        loss_kind="smooth_l1" if dataset == "law" else "binary_cross_entropy",
    )
    return ExperimentConfig(
        spec=builtin_spec(dataset),
        data_path=data_path,
        methods=tuple(methods),
        repeats=repeats,
        base_seed=0,
        train=train,
        ae_epochs=20,
        baseline_ae_epochs=10,
        boost_rounds=20,
        **overrides,
    )


class TestRunExperiment:
    def test_smoke_two_methods_on_law(self, law_csv):
        report = run_experiment(fast_config(law_csv, repeats=3))
        assert set(report.methods) == {"unaware-lr", "invfair"}
        assert report.metric_names == ("rmse", "mae", "r2", "wasserstein", "gaussian_mmd")
        for stats in report.methods.values():
            for name in report.metric_names:
                assert stats[name].n == 3
                assert np.isfinite(stats[name].mean)

    def test_classification_metrics_on_compas(self, compas_csv):
        report = run_experiment(
            fast_config(compas_csv, dataset="compas", methods=("full-lr", "invfair"))
        )
        assert report.metric_names == (
            "precision", "recall", "f1", "balanced_acc", "cv", "ti",
        )

    def test_single_repeat_variance_zero_and_no_t_tests(self, law_csv):
        report = run_experiment(fast_config(law_csv, repeats=1))
        for stats in report.methods.values():
            for s in stats.values():
                assert s.variance == 0.0
        assert report.t_tests == {}

    def test_pairing_shares_split_seeds(self, law_csv):
        cfg = fast_config(law_csv, repeats=3)
        from minifair.data import load_csv
        from minifair.harness import run_one_repeat

        raw = load_csv(cfg.data_path, cfg.spec)
        for r in range(cfg.repeats):
            results = run_one_repeat((cfg, raw, r))
            seeds = {result.seed for result in results}
            assert seeds == {cfg.base_seed + r}

    def test_deterministic_reports(self, law_csv):
        cfg = fast_config(law_csv, repeats=2)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_worker_pool_matches_serial(self, law_csv):
        serial = run_experiment(fast_config(law_csv, repeats=2, workers=1))
        parallel = run_experiment(fast_config(law_csv, repeats=2, workers=2))
        assert serial == parallel

    def test_gboost_methods_run(self, law_csv):
        report = run_experiment(
            fast_config(law_csv, methods=("full-gboost", "ae-lr"), repeats=1)
        )
        assert set(report.methods) == {"full-gboost", "ae-lr"}


class TestAggregate:
    def _results(self, metrics_by_method_seed, cfg):
        out = []
        for method, per_seed in metrics_by_method_seed.items():
            for seed, metrics in per_seed.items():
                out.append(RunResult(method, seed, metrics, 0.0, metrics is None))
        return out

    def _cfg(self, methods):
        return ExperimentConfig(
            spec=builtin_spec("law"), data_path="unused", methods=methods, repeats=2,
        )

    def test_identical_pipelines_give_p_one(self):
        cfg = self._cfg(("unaware-lr", "invfair"))
        names = metric_names_for("regression", False)
        metrics = {n: 0.5 for n in names}
        results = self._results(
            {"unaware-lr": {0: metrics, 1: metrics}, "invfair": {0: metrics, 1: metrics}},
            cfg,
        )
        report = aggregate(results, cfg)
        for name in names:
            assert report.t_tests["unaware-lr"][name].p_value == 1.0
            assert report.t_tests["unaware-lr"][name].t_statistic == 0.0

    def test_failed_runs_excluded(self):
        cfg = self._cfg(("unaware-lr", "invfair"))
        names = metric_names_for("regression", False)
        good = {n: 1.0 for n in names}
        results = self._results(
            {"unaware-lr": {0: good, 1: good}, "invfair": {0: good, 1: None}}, cfg
        )
        report = aggregate(results, cfg)
        assert report.failures["invfair"] == 1
        assert report.methods["invfair"][names[0]].n == 1
        # only one shared seed -> no t-test
        assert report.t_tests == {}

    def test_all_runs_failed_method_flagged(self):
        cfg = self._cfg(("unaware-lr", "invfair"))
        names = metric_names_for("regression", False)
        good = {n: 1.0 for n in names}
        results = self._results(
            {"unaware-lr": {0: good, 1: good}, "invfair": {0: None, 1: None}}, cfg
        )
        report = aggregate(results, cfg)
        assert "invfair" not in report.methods
        assert report.failures["invfair"] == 2
        assert report.reference == "unaware-lr"


class TestEmitReport:
    def _report(self):
        stats = {"rmse": MetricStats(1.25, 0.04, 0.2, 3)}
        return AggregateReport(
            task="regression",
            metric_names=("rmse",),
            methods={"unaware-lr": stats},
            t_tests={},
            reference="unaware-lr",
            failures={"unaware-lr": 0},
            repeats=3,
        )

    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(self._report(), "csv", path)
        first = path.read_text().splitlines()[0]
        assert first == "method,metric,mean,variance,n"

    def test_json_round_trip_exact(self, tmp_path):
        path = tmp_path / "report.json"
        report = self._report()
        emit_report(report, "json", path)
        payload = json.loads(path.read_text())
        entry = payload["methods"]["unaware-lr"]["rmse"]
        assert entry["mean"] == 1.25
        assert entry["variance"] == 0.04
        assert entry["std"] == 0.2
        assert entry["n"] == 3

    def test_empty_report_rejected(self, tmp_path):
        empty = AggregateReport("regression", ("rmse",), {}, {}, None, {}, 1)
        with pytest.raises(ValueError):
            emit_report(empty, "csv", tmp_path / "nope.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml", tmp_path / "nope.xml")


class TestLambdaSweep:
    def test_single_lambda_matches_run_experiment(self, law_csv):
        cfg = fast_config(law_csv, methods=("invfair",), repeats=2)
        sweep = lambda_sweep(cfg, [cfg.train.lam])
        direct = run_experiment(cfg)
        assert sweep[cfg.train.lam] == direct

    def test_sweep_emits_long_format(self, law_csv, tmp_path):
        cfg = fast_config(law_csv, methods=("invfair",), repeats=1)
        reports = lambda_sweep(cfg, [0.5, 2.0])
        path = tmp_path / "sweep.csv"
        emit_sweep_report(reports, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lambda,metric,mean,variance,n"
        # 2 lambdas x 5 regression metrics
        assert len(lines) == 1 + 2 * 5

    def test_empty_lambdas_rejected(self, law_csv):
        with pytest.raises(ValueError):
            lambda_sweep(fast_config(law_csv), [])


class TestExperimentConfigFromDict:
    def test_defaults_and_lambda_per_dataset(self):
        cfg = experiment_config_from_dict({"dataset": "adult", "data.path": "x.csv"})
        assert cfg.train.lam == 100.0
        assert cfg.train.loss_kind == "binary_cross_entropy"
        cfg = experiment_config_from_dict({"dataset": "law", "data.path": "x.csv"})
        assert cfg.train.lam == 1.0
        assert cfg.train.loss_kind == "smooth_l1"
        assert cfg.repeats == 100

    def test_explicit_lambda_wins(self):
        cfg = experiment_config_from_dict(
            {"dataset": "adult", "data.path": "x.csv", "train.lambda": "7"}
        )
        assert cfg.train.lam == 7.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            experiment_config_from_dict(
                {"dataset": "law", "data.path": "x.csv", "methods": "magic"}
            )


class TestScorePredictionFile:
    def test_regression_with_groups(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "prediction,target,group\n0.5,0.4,a\n0.7,0.9,b\n0.2,0.3,a\n0.9,0.8,b\n"
        )
        report = score_prediction_file(path)
        assert report.task == "regression"
        assert "wasserstein" in report.methods["external"]

    def test_classification_thresholds_at_half(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("prediction,target\n0.9,1\n0.2,0\n0.8,1\n0.1,0\n")
        report = score_prediction_file(path)
        assert report.task == "classification"
        assert report.methods["external"]["balanced_acc"].mean == 1.0

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            score_prediction_file(path)


def test_evaluate_scores_skips_single_group_attributes(law_dataset):
    ds, sp = law_dataset
    test_ds = ds.take(sp.test_indices)
    # collapse the second attribute to a single group
    test_ds.S_labels = test_ds.S_labels.copy()
    test_ds.S_labels[:, 1] = 0
    scores = np.linspace(-1, 1, test_ds.n_rows)
    out = evaluate_scores(scores, test_ds)
    assert np.isfinite(out["wasserstein"])


def test_evaluate_scores_lets_group_fairness_errors_through(law_dataset, monkeypatch):
    from minifair import harness

    def broken_group_fairness(predictions, group_labels):
        raise ValueError("length mismatch in group_fairness")

    ds, sp = law_dataset
    test_ds = ds.take(sp.test_indices)
    monkeypatch.setattr(harness, "group_fairness", broken_group_fairness)
    with pytest.raises(ValueError, match="length mismatch in group_fairness"):
        evaluate_scores(np.zeros(test_ds.n_rows), test_ds)


class TestFailureAccounting:
    def test_single_class_test_split_counts_as_failure(self, compas_csv):
        from minifair.data import load_csv, split
        from minifair.harness import run_one_repeat

        cfg = fast_config(compas_csv, dataset="compas", methods=("full-lr",), repeats=1)
        raw = load_csv(compas_csv, cfg.spec)
        raw.target = raw.target.copy()
        raw.target[split(raw.n_rows, cfg.base_seed).test_indices] = 1.0
        (result,) = run_one_repeat((cfg, raw, 0))
        assert result.failed
        assert "single class" in result.error

    def test_value_error_in_a_method_propagates(self, law_csv, monkeypatch):
        from minifair import harness

        def broken_predict(model, features):
            raise ValueError("shape mismatch in predict")

        monkeypatch.setattr(harness, "predict", broken_predict)
        with pytest.raises(ValueError, match="shape mismatch in predict"):
            run_experiment(fast_config(law_csv, methods=("full-lr",), repeats=1))
