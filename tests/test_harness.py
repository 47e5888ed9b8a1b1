import csv
import json
from dataclasses import replace

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
from minifair.metrics import group_fairness, regression_metrics
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

    def test_invalid_lambda_rejected_before_any_repeat(self, law_csv, monkeypatch):
        from minifair import harness

        monkeypatch.setattr(harness, "load_csv", None)  # a repeat would crash on it
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="lambda must be >= 0"):
                lambda_sweep(fast_config(law_csv), [1.0, bad])

    def test_diverged_lambda_fails_only_its_own_entry(self, law_csv):
        cfg = fast_config(law_csv, methods=("invfair",), repeats=2)
        reports = lambda_sweep(cfg, [0.5, 1e9])
        assert reports[0.5].failures == {"invfair": 0}
        assert reports[0.5].methods["invfair"]["rmse"].n == 2
        assert reports[1e9].failures == {"invfair": 2}
        assert reports[1e9].methods == {}

    def test_lambda_list_run_matches_plain_runs(self, law_csv):
        # unaware-lr does not use the trained model: scored once per repeat,
        # it enters both reports
        cfg = fast_config(law_csv, methods=("unaware-lr", "invfair"), repeats=2)
        reports = run_experiment(cfg, [cfg.train.lam, 2.0])
        assert reports[cfg.train.lam] == run_experiment(cfg)
        assert reports[2.0] == run_experiment(replace(cfg, train=replace(cfg.train, lam=2.0)))
        assert reports[2.0].methods["unaware-lr"] == reports[cfg.train.lam].methods["unaware-lr"]


class TestSweepSharesWork:
    """The benchmark tracer and launcher hook these harness globals."""

    HOOKS = ("load_csv", "split", "pretrain", "run_experiment", "run_one_repeat")

    def test_one_pass_per_repeat(self, law_csv, monkeypatch):
        from minifair import harness

        calls = dict.fromkeys(self.HOOKS, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.HOOKS:
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        reports = lambda_sweep(fast_config(law_csv, repeats=2), [0.5, 1.0, 2.0])
        assert sorted(reports) == [0.5, 1.0, 2.0]
        assert calls == {
            "load_csv": 1, "split": 2, "pretrain": 2, "run_experiment": 1, "run_one_repeat": 2,
        }

    def test_worker_pool_sweep_matches_serial(self, law_csv):
        lambdas = [0.5, 2.0]
        serial = lambda_sweep(fast_config(law_csv, repeats=2, workers=1), lambdas)
        parallel = lambda_sweep(fast_config(law_csv, repeats=2, workers=2), lambdas)
        assert serial == parallel


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
        # logits of the probabilities 0.9, 0.2, 0.8 and 0.1; sigmoid 0.5 is logit 0
        path.write_text("logit,target\n2.2,1\n-1.4,0\n1.4,1\n-2.2,0\n")
        report = score_prediction_file(path)
        assert report.task == "classification"
        assert report.methods["external"]["balanced_acc"].mean == 1.0

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            score_prediction_file(path)

    @pytest.mark.parametrize("row", ["0.5,0.4", "0.5,0.4,a,b"])
    def test_ragged_rows_rejected(self, tmp_path, row):
        path = tmp_path / "preds.csv"
        path.write_text(f"prediction,target,group\n0.7,0.9,b\n{row}\n")
        with pytest.raises(ValueError, match="row 2 does not have 3 cells"):
            score_prediction_file(path)

    def test_two_score_columns_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("target,prediction,logit,group\n1,0.5,0.5,a\n0,0.1,0.1,b\n")
        with pytest.raises(ValueError, match="exactly one"):
            score_prediction_file(path)

    def test_binary_targets_of_a_prediction_file_are_regression(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("target,prediction,group\n0,0.2,a\n1,0.7,b\n1,0.4,a\n0,0.1,b\n")
        report = score_prediction_file(path)
        assert report.task == "regression"
        rmse, mae, r2 = regression_metrics([0.2, 0.7, 0.4, 0.1], [0.0, 1.0, 1.0, 0.0])
        stats = report.methods["external"]
        assert (stats["rmse"].mean, stats["mae"].mean, stats["r2"].mean) == (rmse, mae, r2)

    def test_two_attribute_columns_average_both(self, tmp_path):
        pred = [0.5, 0.7, 0.2, 0.9, 0.4, 0.1]
        race = ["w", "b", "b", "w", "h", "w"]
        sex = ["m", "m", "f", "f", "m", "f"]
        path = tmp_path / "preds.csv"
        path.write_text("target,prediction,race,sex\n" + "".join(
            f"0.5,{p},{r},{s}\n" for p, r, s in zip(pred, race, sex)
        ))
        per_attr = [group_fairness(pred, labels) for labels in (race, sex)]
        stats = score_prediction_file(path).methods["external"]
        assert stats["wasserstein"].mean == float(np.mean([w for w, _ in per_attr]))
        assert stats["gaussian_mmd"].mean == float(np.mean([m for _, m in per_attr]))

    @pytest.mark.parametrize("dataset", ["law", "compas"])
    def test_round_trip_reproduces_run_metrics(self, dataset, law_csv, compas_csv, tmp_path,
                                               monkeypatch):
        """Test-split scores of `run`, written with repr and re-scored, give
        every per-seed metric of `run` bit for bit."""
        from minifair import harness
        from minifair.data import load_csv

        data_path = {"law": law_csv, "compas": compas_csv}[dataset]
        cfg = fast_config(
            data_path, dataset, methods=("full-lr", "unaware-gboost", "invfair"), repeats=1
        )
        calls = []
        processed = []
        real_evaluate = harness.evaluate_scores
        real_preprocess = harness.preprocess

        def recording_evaluate(*args):
            metrics = real_evaluate(*args)
            calls.append((args, metrics))
            return metrics

        def recording_preprocess(*args):
            processed.append(real_preprocess(*args))
            return processed[-1]

        monkeypatch.setattr(harness, "evaluate_scores", recording_evaluate)
        monkeypatch.setattr(harness, "preprocess", recording_preprocess)
        results = harness.run_one_repeat((cfg, load_csv(data_path, cfg.spec), 0))
        monkeypatch.undo()
        assert not any(r.failed for r in results)
        assert [r.metrics for r in results] == [metrics for _, metrics in calls]

        (full,) = processed
        score_column = "prediction" if cfg.spec.task == "regression" else "logit"
        for (scores, y, S_labels, task, _), metrics in calls:
            path = tmp_path / "preds.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["target", score_column, *full.sensitive_attrs])
                for score, target, labels in zip(np.ravel(scores), y, S_labels):
                    names = [cats[i] for cats, i in zip(full.sensitive_categories, labels)]
                    writer.writerow([repr(float(target)), repr(float(score)), *names])
            report = score_prediction_file(path)
            assert report.task == task
            assert report.metric_names == tuple(metrics)
            for name, value in metrics.items():
                assert report.methods["external"][name].mean == value, name


def test_evaluate_scores_skips_single_group_attributes(law_dataset):
    ds, sp = law_dataset
    test_ds = ds.take(sp.test_indices)
    # collapse the second attribute to a single group
    test_ds.S_labels = test_ds.S_labels.copy()
    test_ds.S_labels[:, 1] = 0
    scores = np.linspace(-1, 1, test_ds.n_rows)
    out = evaluate_scores(scores, test_ds.y, test_ds.S_labels, test_ds.task)
    assert np.isfinite(out["wasserstein"])


def test_evaluate_scores_lets_group_fairness_errors_through(law_dataset, monkeypatch):
    from minifair import harness

    def broken_group_fairness(predictions, group_labels):
        raise ValueError("length mismatch in group_fairness")

    ds, sp = law_dataset
    test_ds = ds.take(sp.test_indices)
    monkeypatch.setattr(harness, "group_fairness", broken_group_fairness)
    with pytest.raises(ValueError, match="length mismatch in group_fairness"):
        evaluate_scores(np.zeros(test_ds.n_rows), test_ds.y, test_ds.S_labels, test_ds.task)


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
