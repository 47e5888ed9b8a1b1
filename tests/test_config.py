import dataclasses
import re
from pathlib import Path

import pytest

from minifair.cli import main
from minifair.config import KEYS, ConfigError, parse_config_text, parse_fields
from minifair.harness import ExperimentConfig, experiment_config_from_dict
from minifair.trainer import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_basic_file():
    text = """
    # comment
    dataset = law
    repeats = 20

    train.lambda = 1.5
    methods = full-lr, invfair
    """
    cfg = parse_config_text(text)
    assert cfg["dataset"] == "law"
    fields, train = parse_fields(cfg)
    assert fields["repeats"] == 20
    assert train["lam"] == 1.5
    assert fields["methods"] == ("full-lr", "invfair")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("dataset = law\ntrain.momentum = 0.9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("dataset = law\ndataset = adult\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text("dataset law\n")


def test_typed_getters_validate():
    for text in ("repeats = many\n", "train.lambda = big\n", "metrics.cv_sqrt = maybe\n"):
        with pytest.raises(ConfigError):
            parse_fields(parse_config_text(text))


def test_bool_and_float_list():
    cfg = parse_config_text("metrics.cv_sqrt = true\nsweep.lambdas = 0.1, 1, 10\n")
    fields, _ = parse_fields(cfg)
    assert fields["cv_sqrt"] is True
    assert fields["sweep_lambdas"] == [0.1, 1.0, 10.0]


def test_defaults_pass_through():
    cfg = experiment_config_from_dict(parse_config_text("dataset = law\ndata.path = x.csv\n"))
    assert cfg.repeats == 100
    assert cfg.cv_sqrt is False
    assert cfg.sweep_lambdas is None


# A value for every key that differs from what BASE leaves in its field.
# BASE sets the gap weight so that changing the dataset leaves it alone.
BASE = {"dataset": "compas", "data.path": "a.csv", "train.lambda": "1"}
SAMPLES = {
    "dataset": "adult",
    "data.path": "b.csv",
    "methods": "full-lr, invfair",
    "repeats": "3",
    "seed": "7",
    "workers": "2",
    "train.lambda": "2.5",
    "train.epochs": "5",
    "train.batch_size": "16",
    "train.lr": "0.01",
    "train.h_slope": "0.2",
    "train.loss_kind": "mse",
    "train.z_dim": "3",
    "train.encoder_hidden": "5",
    "train.predictor_hidden": "6",
    "ae.e": "2",
    "ae.epochs": "9",
    "ae.input": "all_features",
    "baseline.ae_latent": "4",
    "baseline.ae_epochs": "11",
    "boost.rounds": "12",
    "boost.learning_rate": "0.3",
    "metrics.cv_sqrt": "yes",
    "sweep.lambdas": "0.5, 2",
    "out.path": "r.json",
    "out.format": "json",
    "out.history_dir": "hist",
}


def _flat_fields(cfg):
    """{field: value} of an ExperimentConfig, TrainConfig fields as train.<field>."""
    out = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "train"}
    out.update({f"train.{f.name}": getattr(cfg.train, f.name) for f in dataclasses.fields(cfg.train)})
    return out


@pytest.mark.parametrize("key", sorted(KEYS))
def test_each_key_sets_exactly_its_field(key):
    before = _flat_fields(experiment_config_from_dict(BASE))
    after = _flat_fields(experiment_config_from_dict({**BASE, key: SAMPLES[key]}))
    changed = {name for name in before if before[name] != after[name]}
    field = KEYS[key][0]
    assert changed == {f"train.{field}" if key.startswith("train.") else field}


def test_every_field_is_set_by_exactly_one_key():
    set_by = [
        f"train.{field}" if key.startswith("train.") else field
        for key, (field, _) in KEYS.items()
    ]
    assert len(set_by) == len(set(set_by))
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"train"}
    fields |= {f"train.{f.name}" for f in dataclasses.fields(TrainConfig)} - {"train.seed"}
    assert set(set_by) == fields


def test_bad_value_names_its_key():
    with pytest.raises(ConfigError, match=r"^train\.epochs must be an integer, got 'x'$"):
        parse_fields({"train.epochs": "x"})
    with pytest.raises(ConfigError, match=r"^dataset must be one of adult, compas, law"):
        parse_fields({"dataset": "mystery"})


def test_lambda_option_parses_as_the_sweep_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    body = "dataset = law\ndata.path = x.csv\nout.path = o.csv\n"
    cfg.write_text(body)
    assert main(["sweep", "--config", str(cfg), "--lambda", "abc"]) == 1
    from_option = capsys.readouterr().err
    cfg.write_text(body + "sweep.lambdas = abc\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    from_key = capsys.readouterr().err
    assert from_option == from_key
    assert from_key == "error: sweep.lambdas must be a comma-separated number list, got 'abc'\n"


def _readme_key_table():
    """First-column keys of the README table headed `| key | value |`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | value |")
    keys = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        keys.append(re.fullmatch(r"\| `([^`]+)` \|.*", line).group(1))
    return keys


def test_readme_names_exactly_the_config_keys():
    keys = _readme_key_table()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(KEYS)
