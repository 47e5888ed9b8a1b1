"""The boosted-stump split search as one Python loop over split boundaries,
kept as an oracle for the presorted, vectorised search in
`minifair.baselines`.

`best_stump` scans every boundary of every column in (column, boundary)
order; a later split wins only when its gain beats the best so far by more
than 1e-15. `fit_stumps` runs the same stagewise boosting as
`minifair.baselines.fit_stumps` on top of it.
"""
import numpy as np

from minifair.baselines import StumpEnsemble, _stump_values
from minifair.neural import sigmoid


def best_stump(f, residual):
    """Exhaustive least-squares split of the residuals; deterministic ties.

    Returns (feature, threshold, left value, right value) with rows going
    left when value <= threshold. Falls back to a single-leaf stump when no
    feature admits a split.
    """
    n = residual.size
    total = residual.sum()
    best = None
    best_gain = -np.inf
    for j in range(f.shape[1]):
        order = np.argsort(f[:, j], kind="stable")
        col = f[order, j]
        prefix = np.cumsum(residual[order])
        boundaries = np.nonzero(col[:-1] != col[1:])[0]  # split after index k
        for k in boundaries:
            n_left = k + 1
            n_right = n - n_left
            left_sum = prefix[k]
            right_sum = total - left_sum
            gain = left_sum**2 / n_left + right_sum**2 / n_right
            if gain > best_gain + 1e-15:
                best_gain = gain
                thr = (col[k] + col[k + 1]) / 2.0
                best = (j, float(thr), float(left_sum / n_left), float(right_sum / n_right))
    if best is None:
        mean = float(residual.mean())
        return (0, float("inf"), mean, mean)
    return best


def fit_stumps(features, y, task, rounds=100, learning_rate=0.1) -> StumpEnsemble:
    """Stagewise least-squares stumps with `best_stump` as the split search."""
    f = np.asarray(features, dtype=float)
    t = np.asarray(y, dtype=float).ravel()
    if task == "regression":
        base = float(t.mean())
    else:
        p = min(max(float(t.mean()), 1e-12), 1.0 - 1e-12)
        base = float(np.log(p / (1.0 - p)))
    score = np.full(t.size, base)
    stumps = []
    for _ in range(rounds):
        residual = t - score if task == "regression" else t - sigmoid(score)
        stump = best_stump(f, residual)
        stumps.append(stump)
        score = score + learning_rate * _stump_values(f, stump)
    return StumpEnsemble(rounds, learning_rate, stumps, base)
