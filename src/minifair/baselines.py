"""Representation builders and downstream models for the comparison set.

Representations: full ([X | S_onehot]), unaware (X), ae (latent code of a
general autoencoder over all features), invenc (latent code of a trained
invariant encoder). Downstream models: ridge-solved linear regression or
full-batch logistic regression, and gradient-boosted depth-1 stumps for both
tasks. All models emit raw scores; classification callers threshold the
sigmoid at 0.5, i.e. the score at 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import Autoencoder
from .data import ProcessedDataset
from .neural import forward, sigmoid
from .trainer import ThreePlayerModel, encode

RIDGE = 1e-8
LOGISTIC_ITERATIONS = 500
LOGISTIC_LR = 0.1


def build_representation(kind: str, dataset: ProcessedDataset,
                         trained: ThreePlayerModel | None = None,
                         autoencoder: Autoencoder | None = None) -> np.ndarray:
    if kind == "full":
        return np.hstack([dataset.X, dataset.S_onehot])
    if kind == "unaware":
        return dataset.X.copy()
    if kind == "ae":
        if autoencoder is None:
            raise ValueError("ae representation needs a pretrained autoencoder")
        return forward(autoencoder.encoder, np.hstack([dataset.X, dataset.S_onehot]))
    if kind == "invenc":
        if trained is None:
            raise ValueError("invenc representation needs a trained model")
        return encode(trained, dataset.X)
    raise ValueError(f"unknown representation {kind!r}")


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    link: str  # identity | logistic


@dataclass
class StumpEnsemble:
    """Boosted depth-1 trees: score = base + lr * sum of leaf values."""

    rounds: int
    learning_rate: float
    stumps: list  # (feature index, threshold, left value, right value)
    base_score: float


def fit_linear(features, y, link="identity") -> LinearModel:
    """Identity link solves ridge normal equations; logistic link runs
    full-batch gradient descent on the cross-entropy."""
    f = np.asarray(features, dtype=float)
    t = np.asarray(y, dtype=float).ravel()
    if f.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit")
    if link not in ("identity", "logistic"):
        raise ValueError(f"unknown link {link!r}")
    design = np.hstack([f, np.ones((f.shape[0], 1))])
    if link == "identity":
        gram = design.T @ design + RIDGE * np.eye(design.shape[1])
        try:
            coef = np.linalg.solve(gram, design.T @ t)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"normal equations unsolvable: {exc}") from exc
        return LinearModel(coef[:-1], float(coef[-1]), link)
    coef = np.zeros(design.shape[1])
    n = design.shape[0]
    for _ in range(LOGISTIC_ITERATIONS):
        z = design @ coef
        grad = design.T @ (sigmoid(z) - t) / n
        coef -= LOGISTIC_LR * grad
    return LinearModel(coef[:-1], float(coef[-1]), link)


def fit_stumps(features, y, task, rounds=100, learning_rate=0.1) -> StumpEnsemble:
    """Stagewise least-squares stumps on pseudo-residuals.

    Regression boosts squared loss from a mean base score; classification
    boosts logistic loss from the log-odds base score with residuals
    y - sigmoid(score). Each stump's threshold comes from an exhaustive scan
    over feature midpoints. The columns are sorted once per fit; each round
    then scores every split boundary at once.
    """
    f = np.asarray(features, dtype=float)
    t = np.asarray(y, dtype=float).ravel()
    if f.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if task == "regression":
        base = float(t.mean())
    elif task == "classification":
        p = min(max(float(t.mean()), 1e-12), 1.0 - 1e-12)
        base = float(np.log(p / (1.0 - p)))
    else:
        raise ValueError(f"unknown task {task!r}")
    splits = _presort(f)
    score = np.full(t.size, base)
    stumps = []
    for _ in range(rounds):
        residual = t - score if task == "regression" else t - sigmoid(score)
        stump = _best_stump(splits, residual)
        stumps.append(stump)
        score = score + learning_rate * _stump_values(f, stump)
    return StumpEnsemble(rounds, learning_rate, stumps, base)


@dataclass(frozen=True)
class _Splits:
    """Every split boundary of a feature matrix, in (column, boundary) order.

    A boundary lies between two consecutive distinct values of a column's
    stable sort; rows up to it go left.
    """

    order: np.ndarray      # (d, n) stable argsort of each column
    last_left: np.ndarray  # flat index into (d, n) of the last row going left
    feature: np.ndarray    # column of each boundary
    threshold: np.ndarray  # midpoint of the two values either side
    n_left: np.ndarray     # row counts either side, as floats
    n_right: np.ndarray


def _presort(f) -> _Splits:
    n = f.shape[0]
    order = np.argsort(f, axis=0, kind="stable").T
    cols = np.take_along_axis(f.T, order, axis=1)
    feature, k = np.nonzero(cols[:, :-1] != cols[:, 1:])
    threshold = (cols[feature, k] + cols[feature, k + 1]) / 2.0
    n_left = (k + 1).astype(float)
    return _Splits(order, feature * n + k, feature, threshold, n_left, n - n_left)


def _best_stump(splits, residual):
    """Exhaustive least-squares split of the residuals; deterministic ties.

    Returns (feature, threshold, left value, right value) with rows going
    left when value <= threshold. The earliest split in (column, boundary)
    order wins unless a later gain beats it by more than 1e-15. Falls back
    to a single-leaf stump when no feature admits a split.
    """
    n_left, n_right = splits.n_left, splits.n_right
    left = np.cumsum(residual[splits.order], axis=1).ravel()[splits.last_left]
    right = residual.sum() - left
    # Only a split whose gain beats every earlier one can win, so the tie
    # rule is replayed on those alone. They are found with squares, keeping
    # every split within a relative 1e-12 of the best earlier gain: far more
    # than the last-bit difference between an array's correctly rounded
    # square and C pow, which a float64 scalar's `x**2` calls. The kept
    # gains are recomputed with pow, so ties break as in a scalar scan.
    rough = left * left / n_left + right * right / n_right
    near_best = np.ones(rough.size, dtype=bool)
    near_best[1:] = ~(rough[1:] <= (1.0 - 1e-12) * np.fmax.accumulate(rough)[:-1])
    near = np.flatnonzero(near_best)
    gain = (np.float_power(left[near], 2) / n_left[near]
            + np.float_power(right[near], 2) / n_right[near])
    best = None
    best_gain = -np.inf
    for i, g in zip(near.tolist(), gain.tolist()):
        if g > best_gain + 1e-15:
            best, best_gain = i, g
    if best is None:
        mean = float(residual.mean())
        return (0, float("inf"), mean, mean)
    return (int(splits.feature[best]), float(splits.threshold[best]),
            float(left[best] / n_left[best]), float(right[best] / n_right[best]))


def _stump_values(f, stump):
    j, thr, left, right = stump
    return np.where(f[:, j] <= thr, left, right)


def predict(model, features) -> np.ndarray:
    """Raw scores from a fitted LinearModel or StumpEnsemble."""
    f = np.asarray(features, dtype=float)
    if isinstance(model, LinearModel):
        if f.shape[1] != model.weights.size:
            raise ValueError(
                f"feature dim {f.shape[1]} does not match model dim {model.weights.size}"
            )
        return f @ model.weights + model.bias
    if isinstance(model, StumpEnsemble):
        score = np.full(f.shape[0], model.base_score)
        for stump in model.stumps:
            score = score + model.learning_rate * _stump_values(f, stump)
        return score
    raise TypeError(f"cannot predict with {type(model).__name__}")
