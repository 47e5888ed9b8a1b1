import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from minifair.data import builtin_spec
from minifair.harness import (
    ExperimentConfig,
    emit_sweep_report,
    evaluate_scores,
    lambda_sweep,
    run_experiment,
)
from minifair.synthdata import generate_law_csv
from minifair.trainer import TrainConfig


@pytest.fixture(scope="module")
def law_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("extras") / "law.csv"
    generate_law_csv(path, n=250, seed=3)
    return str(path)


def tiny_config(law_csv, **overrides):
    train = overrides.pop(
        "train",
        TrainConfig(epochs=2, batch_size=64, z_dim=4, encoder_hidden=8, predictor_hidden=8),
    )
    return ExperimentConfig(
        spec=builtin_spec("law"),
        data_path=law_csv,
        methods=("invfair",),
        repeats=1,
        base_seed=0,
        train=train,
        ae_epochs=5,
        **overrides,
    )


def test_history_dump(law_csv, tmp_path):
    hist_dir = tmp_path / "hist"
    cfg = tiny_config(law_csv, history_dir=str(hist_dir))
    run_experiment(cfg)
    path = hist_dir / "history_invfair_seed0.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,fair_loss,adversary_loss,gap_term"
    assert len(lines) == 1 + cfg.train.epochs
    for line in lines[1:]:
        [float(cell) for cell in line.split(",")]  # plain numbers, not np.float64(...)


def test_sweep_history_per_lambda_and_seed(law_csv, tmp_path):
    hist_dir = tmp_path / "hist"
    cfg = replace(tiny_config(law_csv, history_dir=str(hist_dir)), repeats=2)
    lambda_sweep(cfg, [0.5, 2.0])
    names = sorted(p.name for p in hist_dir.iterdir())
    assert names == [
        f"history_invfair_lambda{lam}_seed{seed}.csv"
        for lam in ("0.5", "2.0") for seed in (0, 1)
    ]
    contents = {(hist_dir / name).read_text() for name in names}
    assert len(contents) == 4  # each (λ, seed) kept its own training run


def test_all_features_ae_input_mode(law_csv):
    cfg = tiny_config(law_csv, ae_input="all_features")
    report = run_experiment(cfg)
    assert report.methods["invfair"]["rmse"].n == 1


def test_cv_sqrt_metric(law_dataset):
    ds, sp = law_dataset
    test_ds = ds.take(sp.test_indices)
    test_ds.task = "classification"
    test_ds.y = (np.arange(test_ds.n_rows) % 2).astype(float)
    scores = np.where(test_ds.y == 1, 1.0, -1.0) * np.linspace(0.2, 2.0, test_ds.n_rows)
    scores[0] = -scores[0]  # one error so cv > 0
    out = evaluate_scores(scores, test_ds.y, test_ds.S_labels, test_ds.task, cv_sqrt=True)
    assert out["cv_sqrt"] == pytest.approx(math.sqrt(2.0 * out["cv"]))


def test_sweep_json_round_trip(law_csv, tmp_path):
    cfg = tiny_config(law_csv)
    reports = lambda_sweep(cfg, [0.5])
    out = tmp_path / "sweep.json"
    emit_sweep_report(reports, "json", out)
    payload = json.loads(out.read_text())
    assert "0.5" in payload["lambdas"]
    assert payload["lambdas"]["0.5"]["rmse"]["n"] == 1


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_experiment_config_validation(law_csv):
    with pytest.raises(ValueError):
        ExperimentConfig(spec=builtin_spec("law"), data_path=law_csv, repeats=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=builtin_spec("law"), data_path=law_csv, methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(spec=builtin_spec("law"), data_path=law_csv, methods=("magic",))
