import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from minifair.cli import main
from minifair.harness import METHODS
from minifair.synthdata import generate_adult_csv, generate_compas_csv, generate_law_csv


@pytest.fixture(scope="module")
def law_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "law.csv"
    generate_law_csv(path, n=200, seed=2)
    return str(path)


def write_config(tmp_path, law_csv, extra=""):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = law\n"
        f"data.path = {law_csv}\n"
        f"methods = unaware-lr, invfair\n"
        f"repeats = 2\n"
        f"seed = 0\n"
        f"train.epochs = 2\n"
        f"train.z_dim = 4\n"
        f"train.encoder_hidden = 8\n"
        f"train.predictor_hidden = 8\n"
        f"ae.epochs = 10\n"
        + extra
    )
    return str(cfg)


class TestRun:
    def test_run_writes_csv(self, tmp_path, law_csv, capsys):
        out = tmp_path / "report.csv"
        cfg = write_config(tmp_path, law_csv)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,metric,mean,variance,n"
        assert any(line.startswith("invfair,rmse,") for line in lines)

    def test_run_json_format(self, tmp_path, law_csv):
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, law_csv)
        assert main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["reference"] == "invfair"
        assert "unaware-lr" in payload["t_tests"]

    def test_method_and_repeats_overrides(self, tmp_path, law_csv):
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, law_csv)
        assert (
            main(
                [
                    "run", "--config", cfg, "--out", str(out),
                    "--method", "full-lr", "--repeats", "1",
                ]
            )
            == 0
        )
        body = out.read_text()
        assert "full-lr" in body and "invfair" not in body

    def test_missing_out_path_errors(self, tmp_path, law_csv, capsys):
        cfg = write_config(tmp_path, law_csv)
        assert main(["run", "--config", cfg]) == 1
        assert "out" in capsys.readouterr().err

    def test_bad_config_key_errors(self, tmp_path, law_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dataset = law\nmystery = 1\n")
        assert main(["run", "--config", str(cfg), "--out", "x.csv"]) == 1

    def test_missing_data_file_errors(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.cfg"
        cfg.write_text("dataset = law\ndata.path = /does/not/exist.csv\nrepeats = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1


class TestSweep:
    def test_sweep_flag(self, tmp_path, law_csv):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, law_csv)
        code = main(
            ["sweep", "--config", cfg, "--out", str(out), "--lambda", "0.5,2",
             "--repeats", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,metric,mean,variance,n"
        assert len(lines) == 1 + 2 * 5

    def test_sweep_from_config_key(self, tmp_path, law_csv):
        out = tmp_path / "sweep.csv"
        cfg = write_config(tmp_path, law_csv, extra="sweep.lambdas = 1\n")
        assert main(["sweep", "--config", cfg, "--out", str(out), "--repeats", "1"]) == 0

    def test_sweep_without_lambdas_errors(self, tmp_path, law_csv):
        cfg = write_config(tmp_path, law_csv)
        assert main(["sweep", "--config", cfg, "--out", "s.csv"]) == 1


class TestScore:
    def test_score_predictions(self, tmp_path):
        preds = tmp_path / "preds.csv"
        preds.write_text("logit,target\n2.2,1\n-2.2,0\n")
        out = tmp_path / "scored.csv"
        assert main(["score", "--predictions", str(preds), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "method,metric,mean,variance,n"

    def test_score_regression_without_two_groups_exits_1(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("target,prediction,group\n0.4,0.5,a\n0.9,0.7,a\n")
        out = tmp_path / "scored.csv"
        assert main(["score", "--predictions", str(preds), "--out", str(out)]) == 1
        assert "no sensitive attribute has two groups" in capsys.readouterr().err
        assert not out.exists()

    def test_score_classification_with_one_class_exits_1(self, tmp_path, capsys):
        preds = tmp_path / "preds.csv"
        preds.write_text("target,logit,group\n1,2.2,a\n1,-1.0,b\n")
        out = tmp_path / "scored.csv"
        assert main(["score", "--predictions", str(preds), "--out", str(out)]) == 1
        assert "single class" in capsys.readouterr().err
        assert not out.exists()

    def test_score_missing_file(self, tmp_path):
        assert (
            main(["score", "--predictions", str(tmp_path / "x.csv"), "--out", "o.csv"])
            == 1
        )


# name -> (command, extra config lines, extra CLI arguments, stderr fragment)
LOAD_TIME_CASES = {
    "format-xml": ("run", "out.format = xml\n", [], "unknown report format 'xml'"),
    "ae-input-bogus": ("run", "ae.input = bogus\n", [], "unknown ae.input 'bogus'"),
    "loss-kind-bogus": ("run", "train.loss_kind = bogus\n", [], "unknown loss kind 'bogus'"),
    "bce-on-regression": (
        "run", "train.loss_kind = binary_cross_entropy\n", [], "law is a regression dataset"),
    "lambda-nan": ("run", "train.lambda = nan\n", [], "lambda must be >= 0"),
    "lr-nan": ("run", "train.lr = nan\n", [], "lr must be > 0"),
    "lr-zero": ("run", "train.lr = 0\n", [], "lr must be > 0"),
    "methods-twice": ("run", "methods = invfair, invfair\n", [], "names a method twice"),
    "method-option-twice": (
        "run", "", ["--method", "invfair,unaware-lr,invfair"], "names a method twice"),
    "h-slope-nan": ("run", "train.h_slope = nan\n", [], "h_slope must be finite"),
    "h-slope-inf": ("run", "train.h_slope = inf\n", [], "h_slope must be finite"),
    "epochs-negative": ("run", "train.epochs = -1\n", [], "epochs must be >= 0"),
    "z-dim-zero": ("run", "train.z_dim = 0\n", [], "z_dim must be >= 1"),
    "encoder-hidden-zero": (
        "run", "train.encoder_hidden = 0\n", [], "encoder_hidden must be >= 1"),
    "predictor-hidden-zero": (
        "run", "train.predictor_hidden = 0\n", [], "predictor_hidden must be >= 1"),
    "ae-e-zero": ("run", "ae.e = 0\n", [], "ae.e must be >= 1, got 0"),
    "ae-epochs-zero": ("run", "ae.epochs = 0\n", [], "ae.epochs must be >= 1, got 0"),
    "baseline-ae-latent-zero": (
        "run", "baseline.ae_latent = 0\n", [], "baseline.ae_latent must be >= 1, got 0"),
    "baseline-ae-epochs-zero": (
        "run", "baseline.ae_epochs = 0\n", [], "baseline.ae_epochs must be >= 1, got 0"),
    "boost-rounds-zero": ("run", "boost.rounds = 0\n", [], "boost.rounds must be >= 1, got 0"),
    "boost-lr-nan": (
        "run", "boost.learning_rate = nan\n", [], "boost.learning_rate must be finite, got nan"),
    "boost-lr-inf": (
        "sweep", "boost.learning_rate = -inf\nsweep.lambdas = 1\n", [],
        "boost.learning_rate must be finite, got -inf"),
    "lambda-option-abc": (
        "sweep", "", ["--lambda", "abc"], "sweep.lambdas must be a comma-separated number list"),
}


@pytest.mark.parametrize("name", sorted(LOAD_TIME_CASES))
def test_bad_value_fails_before_the_csv_is_read(name, tmp_path, monkeypatch, capsys):
    from minifair import harness

    def load_csv(*args, **kwargs):
        raise AssertionError("load_csv called")

    monkeypatch.setattr(harness, "load_csv", load_csv)
    command, extra, args, message = LOAD_TIME_CASES[name]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("dataset = law\ndata.path = law.csv\nrepeats = 2\n" + extra)
    out = tmp_path / "report.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)] + args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# np.unique on floats imports numpy.ma, which adds ~1.2 MB (3%) to the peak
# RSS of a compas sweep; the CLI needs none of it.
NO_MA_CASES = {
    "compas-run-all": ("run", "compas", "methods = " + ", ".join(METHODS), []),
    "compas-sweep": ("sweep", "compas", "methods = invfair", ["--lambda", "0.1,10"]),
    "adult-run-all": ("run", "adult", "methods = " + ", ".join(METHODS), []),
}
NO_MA_SCRIPT = (
    "import sys\n"
    "from minifair.cli import main\n"
    "status = main(sys.argv[1:])\n"
    "print('numpy.ma' in sys.modules)\n"
    "sys.exit(status)\n"
)


@pytest.mark.parametrize("name", sorted(NO_MA_CASES))
def test_cli_never_imports_numpy_ma(name, tmp_path):
    command, dataset, methods, args = NO_MA_CASES[name]
    data = tmp_path / f"{dataset}.csv"
    {"compas": generate_compas_csv, "adult": generate_adult_csv}[dataset](data, n=300, seed=0)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = {dataset}\ndata.path = {data}\n{methods}\nrepeats = 2\nseed = 0\n"
        "train.epochs = 2\nae.epochs = 2\nbaseline.ae_epochs = 2\nboost.rounds = 3\n"
    )
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_MA_SCRIPT, command, "--config", str(cfg),
         "--out", str(tmp_path / "report.csv")] + args,
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
