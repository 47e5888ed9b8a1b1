"""Flat `key = value` experiment configuration files.

Dotted keys group related settings (train.lambda, out.path, ...). Lines
starting with # and blank lines are ignored. Unknown keys are rejected so
typos fail loudly instead of silently using a default.

KEYS is the whole schema: each key names the field it sets and how its text
is parsed. A key under `train.` sets a field of trainer.TrainConfig, any
other key one of harness.ExperimentConfig. Defaults live on those dataclass
fields, whose checks run when the config is built, before any data is read.
"""
from __future__ import annotations

from .data import BUILTIN_SPECS, builtin_spec


class ConfigError(ValueError):
    pass


def _bool(text):
    value = text.lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(text)


def _items(text):
    return [item.strip() for item in text.split(",") if item.strip()]


# (parse, what it accepts): parse raises ValueError on text it rejects
TEXT = (str, "text")
INT = (int, "an integer")
FLOAT = (float, "a number")
BOOL = (_bool, "a boolean")
NAMES = (lambda text: tuple(_items(text)), "a comma-separated list")
NUMBERS = (lambda text: [float(item) for item in _items(text)], "a comma-separated number list")
DATASET = (builtin_spec, f"one of {', '.join(sorted(BUILTIN_SPECS))}")

# key -> (field, parser)
KEYS = {
    "dataset": ("spec", DATASET),
    "data.path": ("data_path", TEXT),
    "methods": ("methods", NAMES),
    "repeats": ("repeats", INT),
    "seed": ("base_seed", INT),
    "workers": ("workers", INT),
    "train.lambda": ("lam", FLOAT),
    "train.epochs": ("epochs", INT),
    "train.batch_size": ("batch_size", INT),
    "train.lr": ("lr", FLOAT),
    "train.h_slope": ("h_slope", FLOAT),
    "train.loss_kind": ("loss_kind", TEXT),
    "train.z_dim": ("z_dim", INT),
    "train.encoder_hidden": ("encoder_hidden", INT),
    "train.predictor_hidden": ("predictor_hidden", INT),
    "ae.e": ("ae_e", INT),
    "ae.epochs": ("ae_epochs", INT),
    "ae.input": ("ae_input", TEXT),
    "baseline.ae_latent": ("baseline_ae_latent", INT),
    "baseline.ae_epochs": ("baseline_ae_epochs", INT),
    "boost.rounds": ("boost_rounds", INT),
    "boost.learning_rate": ("boost_lr", FLOAT),
    "metrics.cv_sqrt": ("cv_sqrt", BOOL),
    "sweep.lambdas": ("sweep_lambdas", NUMBERS),
    "out.path": ("out_path", TEXT),
    "out.format": ("out_format", TEXT),
    "out.history_dir": ("history_dir", TEXT),
}


def parse_config_text(text: str) -> dict:
    values = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def parse_fields(values: dict) -> tuple:
    """(ExperimentConfig fields, TrainConfig fields) that the `key = value`
    pairs set, each value parsed by its key's parser."""
    experiment, train = {}, {}
    for key, text in values.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}")
        name, (parse, accepts) = KEYS[key]
        try:
            value = parse(text)
        except ValueError:
            raise ConfigError(f"{key} must be {accepts}, got {text!r}") from None
        (train if key.startswith("train.") else experiment)[name] = value
    return experiment, train
