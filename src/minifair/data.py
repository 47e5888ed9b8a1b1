"""CSV loading, sensitive/non-sensitive column separation, preprocessing,
and seeded 80/20 splits.

Continuous columns are standardized with train-split statistics only
(population std, constants mapped to std 1). Non-sensitive categoricals are
one-hot encoded over the categories observed in the full table; sensitive
attributes are emitted both as per-attribute label indices and as one-hot
blocks, and never contribute columns to X. Rows with missing values in any
used column are dropped and counted.

Built-in dataset schemas for the three tabular benchmarks live in
BUILTIN_SPECS; raw CSVs are not vendored and must be supplied by the caller
(synthdata can generate structurally matching stand-ins).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

TASKS = ("regression", "classification")

# Cell contents treated as missing, compared lowercase and stripped.
MISSING_TOKENS = {"", "na", "n/a", "nan", "?"}


class SchemaError(ValueError):
    """A required column is absent from the CSV header."""


class ParseError(ValueError):
    """A cell could not be parsed; the message carries the file line number."""


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    task: str
    target_column: str
    sensitive_columns: tuple
    continuous_columns: tuple
    categorical_columns: tuple
    positive_label: str | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        groups = [
            set(self.sensitive_columns),
            set(self.continuous_columns),
            set(self.categorical_columns),
            {self.target_column},
        ]
        total = sum(len(g) for g in groups)
        merged = set().union(*groups)
        if len(merged) != total:
            raise ValueError("column sets must be pairwise disjoint")

    @property
    def used_columns(self) -> tuple:
        return (
            self.continuous_columns
            + self.categorical_columns
            + self.sensitive_columns
            + (self.target_column,)
        )


BUILTIN_SPECS = {
    "law": DatasetSpec(
        name="law",
        task="regression",
        target_column="fya",
        sensitive_columns=("race", "gender"),
        continuous_columns=("lsat", "ugpa"),
        categorical_columns=(),
    ),
    "compas": DatasetSpec(
        name="compas",
        task="classification",
        target_column="two_year_recid",
        sensitive_columns=("race", "sex"),
        continuous_columns=("age", "priors_count"),
        categorical_columns=("charge_degree",),
    ),
    "adult": DatasetSpec(
        name="adult",
        task="classification",
        target_column="income",
        sensitive_columns=("race", "sex"),
        continuous_columns=(
            "age",
            "education_num",
            "hours_per_week",
            "capital_gain",
            "capital_loss",
        ),
        categorical_columns=("workclass", "occupation", "marital_status"),
        positive_label=">50K",
    ),
}


def builtin_spec(name: str) -> DatasetSpec:
    try:
        return BUILTIN_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(BUILTIN_SPECS)}"
        ) from None


@dataclass
class RawTable:
    """Typed columns after missing-row filtering.

    continuous maps column name -> float array; categorical maps column name
    -> list of category strings (sensitive columns included); target is a
    float vector. n_dropped counts rows removed for missing values.
    """

    continuous: dict
    categorical: dict
    target: np.ndarray
    n_rows: int
    n_dropped: int


@dataclass(frozen=True)
class Split:
    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int


@dataclass
class ProcessedDataset:
    """Model-ready arrays; X never contains sensitive-derived columns."""

    X: np.ndarray          # (n, d) standardized continuous + one-hot categoricals
    S_labels: np.ndarray   # (n, n_attrs) int category index per sensitive attribute
    S_onehot: np.ndarray   # (n, sum of category counts)
    y: np.ndarray          # (n,)
    task: str
    column_names: tuple
    sensitive_attrs: tuple
    sensitive_categories: tuple  # tuple of category-name tuples, one per attribute

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def sensitive_group_sizes(self) -> tuple:
        return tuple(len(cats) for cats in self.sensitive_categories)

    def take(self, indices) -> "ProcessedDataset":
        idx = np.asarray(indices, dtype=int)
        return ProcessedDataset(
            X=self.X[idx],
            S_labels=self.S_labels[idx],
            S_onehot=self.S_onehot[idx],
            y=self.y[idx],
            task=self.task,
            column_names=self.column_names,
            sensitive_attrs=self.sensitive_attrs,
            sensitive_categories=self.sensitive_categories,
        )


def load_csv(path, spec: DatasetSpec) -> RawTable:
    """Read and type a benchmark CSV, dropping rows with missing used cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in spec.used_columns:
            if col not in header:
                raise SchemaError(f"column {col!r} missing from {path}")
        continuous = {c: [] for c in spec.continuous_columns}
        categorical = {c: [] for c in spec.categorical_columns + spec.sensitive_columns}
        target = []
        n_dropped = 0
        for row in reader:
            cells = {c: (row[c] or "").strip() for c in spec.used_columns}
            if any(cells[c].lower() in MISSING_TOKENS for c in spec.used_columns):
                n_dropped += 1
                continue
            for c in spec.continuous_columns:
                continuous[c].append(_parse_float(cells[c], c, reader.line_num))
            for c in categorical:
                categorical[c].append(cells[c])
            target.append(_parse_target(cells[spec.target_column], spec, reader.line_num))
    return RawTable(
        continuous={c: np.array(v, dtype=float) for c, v in continuous.items()},
        categorical=categorical,
        target=np.array(target, dtype=float),
        n_rows=len(target),
        n_dropped=n_dropped,
    )


def _parse_float(cell, column, line_num):
    try:
        return float(cell)
    except ValueError:
        raise ParseError(
            f"cannot parse {cell!r} in column {column!r} at line {line_num}"
        ) from None


def _parse_target(cell, spec, line_num):
    if spec.task == "regression":
        return _parse_float(cell, spec.target_column, line_num)
    if spec.positive_label is not None:
        return 1.0 if cell == spec.positive_label else 0.0
    value = _parse_float(cell, spec.target_column, line_num)
    if value not in (0.0, 1.0):
        raise ParseError(
            f"classification target must be 0/1, got {cell!r} at line {line_num}"
        )
    return value


def split(n: int, seed: int) -> Split:
    """Deterministic shuffled 80/20 partition of range(n)."""
    if n < 5:
        raise ValueError("need at least 5 rows to split 80/20")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.8 * n))
    return Split(
        train_indices=np.sort(perm[:n_train]),
        test_indices=np.sort(perm[n_train:]),
        seed=seed,
    )


def preprocess(raw: RawTable, spec: DatasetSpec, train_indices) -> ProcessedDataset:
    """Build model-ready arrays for all rows using train-split statistics only."""
    train_idx = np.asarray(train_indices, dtype=int)
    if train_idx.size == 0:
        raise ValueError("train split must be non-empty")

    x_blocks = []
    names = []
    for col in spec.continuous_columns:
        values = raw.continuous[col]
        mean = float(values[train_idx].mean())
        std = float(values[train_idx].std())  # population std
        if std == 0.0:
            std = 1.0
        x_blocks.append(((values - mean) / std).reshape(-1, 1))
        names.append(col)
    for col in spec.categorical_columns:
        block, cats = _one_hot(raw.categorical[col])
        x_blocks.append(block)
        names.extend(f"{col}={c}" for c in cats)

    s_label_cols = []
    s_blocks = []
    attr_categories = []
    for col in spec.sensitive_columns:
        block, cats = _one_hot(raw.categorical[col])
        s_blocks.append(block)
        attr_categories.append(cats)
        lookup = {c: i for i, c in enumerate(cats)}
        s_label_cols.append([lookup[v] for v in raw.categorical[col]])

    n = raw.n_rows
    x = np.hstack(x_blocks) if x_blocks else np.zeros((n, 0))
    return ProcessedDataset(
        X=x,
        S_labels=np.array(s_label_cols, dtype=int).T.reshape(n, len(spec.sensitive_columns)),
        S_onehot=np.hstack(s_blocks) if s_blocks else np.zeros((n, 0)),
        y=raw.target.copy(),
        task=spec.task,
        column_names=tuple(names),
        sensitive_attrs=spec.sensitive_columns,
        sensitive_categories=tuple(attr_categories),
    )


def _one_hot(values):
    cats = tuple(sorted(set(values)))
    lookup = {c: i for i, c in enumerate(cats)}
    block = np.zeros((len(values), len(cats)))
    for i, v in enumerate(values):
        block[i, lookup[v]] = 1.0
    return block, cats
