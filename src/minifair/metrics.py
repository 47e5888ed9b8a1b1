"""Accuracy and fairness metrics for one trained model on one test split.

Regression reports RMSE / MAE / R2 plus distribution distances between
group-conditional prediction distributions (exact 1-D Wasserstein and the
biased Gaussian-kernel MMD). Classification reports precision / recall / F1 /
balanced accuracy plus the generalized entropy index family over per-sample
benefits b_i = prediction - target + 1 (alpha = 1 is the Theil index, alpha = 2
the coefficient-of-variation variant).

All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def regression_metrics(pred, y):
    """(rmse, mae, r2). r2 is 0 by convention when both SS_tot and SS_res vanish."""
    p, t = _paired(pred, y)
    d = p - t
    rmse = float(np.sqrt(np.mean(d * d)))
    mae = float(np.mean(np.abs(d)))
    ss_res = float(np.sum(d * d))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 0.0 if ss_res == 0.0 else float("-inf")
    else:
        r2 = 1.0 - ss_res / ss_tot
    return rmse, mae, r2


def confusion_counts(pred_binary, y) -> ConfusionCounts:
    p, t = _paired(pred_binary, y)
    for name, v in (("predictions", p), ("targets", t)):
        if not np.all((v == 0.0) | (v == 1.0)):
            raise ValueError(f"{name} must be 0/1 for classification metrics")
    tp = int(np.sum((p == 1) & (t == 1)))
    fp = int(np.sum((p == 1) & (t == 0)))
    tn = int(np.sum((p == 0) & (t == 0)))
    fn = int(np.sum((p == 0) & (t == 1)))
    return ConfusionCounts(tp, fp, tn, fn)


def classification_metrics(pred_binary, y):
    """(precision, recall, f1, balanced_acc) with the usual zero conventions.

    Balanced accuracy is (TPR + TNR) / 2 and needs at least one positive and
    one negative target.
    """
    c = confusion_counts(pred_binary, y)
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise ValueError("balanced accuracy needs both classes present in targets")
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else 0.0
    recall = c.tp / (c.tp + c.fn)
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    tpr = recall
    tnr = c.tn / (c.tn + c.fp)
    return precision, recall, f1, (tpr + tnr) / 2.0


def wasserstein_1d(a, b) -> float:
    """Exact first Wasserstein distance between two empirical distributions.

    Integrates |CDF_a - CDF_b| over the merged support, which for equal sample
    sizes reduces to the mean absolute difference of the sorted samples.
    """
    a = _nonempty(a, "a")
    b = _nonempty(b, "b")
    a = np.sort(a)
    b = np.sort(b)
    support = np.sort(np.concatenate([a, b]))
    deltas = np.diff(support)
    if deltas.size == 0:
        return 0.0
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def gaussian_mmd(a, b, bandwidth=None) -> float:
    """Biased (V-statistic) squared MMD with a Gaussian kernel.

    The bandwidth defaults to the median pairwise distance over the pooled
    samples (1.0 when that median is 0), so the estimate is always >= 0 and
    symmetric in its arguments.
    """
    a = _nonempty(a, "a")
    b = _nonempty(b, "b")
    if bandwidth is None:
        bandwidth = _median_pairwise_distance(np.concatenate([a, b]))
    elif bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    k_aa = _gaussian_kernel_mean(a, a, bandwidth)
    k_bb = _gaussian_kernel_mean(b, b, bandwidth)
    k_ab = _gaussian_kernel_mean(a, b, bandwidth)
    return max(k_aa + k_bb - 2.0 * k_ab, 0.0)


def _gaussian_kernel_mean(a, b, sigma):
    diff = a[:, None] - b[None, :]
    return float(np.mean(np.exp(-(diff * diff) / (2.0 * sigma * sigma))))


def _median_pairwise_distance(pooled):
    if pooled.size < 2:
        return 1.0
    diffs = np.abs(pooled[:, None] - pooled[None, :])
    med = float(np.median(diffs[np.triu_indices(pooled.size, k=1)]))
    # fall back to 1 when the median is zero or so small that sigma^2 underflows
    if med <= 0.0 or med * med == 0.0:
        return 1.0
    return med


def benefits(pred, y):
    """Per-sample benefits b_i = pred_i - y_i + 1."""
    p, t = _paired(pred, y)
    return p - t + 1.0


def generalized_entropy_from_benefits(b, alpha: float) -> float:
    """Generalized entropy index of a nonnegative benefit vector.

    Three branches: the power form for alpha not in {0, 1}, the Theil form
    (alpha = 1, with 0 ln 0 = 0), and the mean-log form (alpha = 0, which
    requires strictly positive benefits, as does any alpha < 0).
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.size == 0:
        raise ValueError("empty benefit vector")
    if np.any(b < 0.0):
        raise ValueError("benefits must be nonnegative")
    mu = float(b.mean())
    if mu <= 0.0:
        raise ValueError("mean benefit must be positive")
    if alpha <= 0.0 and np.any(b == 0.0):
        raise ValueError("alpha <= 0 requires strictly positive benefits")
    r = b / mu
    if alpha == 0.0:
        return float(-np.mean(np.log(r)))
    if alpha == 1.0:
        terms = np.where(r > 0.0, r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)
        return float(np.mean(terms))
    return float((np.mean(r ** alpha) - 1.0) / (alpha * (alpha - 1.0)))


def group_fairness(predictions, group_labels):
    """(wasserstein, gaussian_mmd) averaged over all unordered group pairs.

    Groups are taken from the distinct labels; at least two must be present.
    """
    predictions = np.asarray(predictions, dtype=float).ravel()
    group_labels = np.asarray(group_labels).ravel()
    if predictions.size != group_labels.size:
        raise ValueError("predictions and group labels must have equal length")
    labels = np.unique(group_labels)
    if labels.size < 2:
        raise ValueError("need at least two groups for distance metrics")
    chunks = {lab: predictions[group_labels == lab] for lab in labels}
    w_vals = []
    m_vals = []
    for i in range(labels.size):
        for j in range(i + 1, labels.size):
            a = chunks[labels[i]]
            b = chunks[labels[j]]
            if a.size == 0 or b.size == 0:
                continue
            w_vals.append(wasserstein_1d(a, b))
            m_vals.append(gaussian_mmd(a, b))
    if not w_vals:
        raise ValueError("all group pairs were empty")
    return float(np.mean(w_vals)), float(np.mean(m_vals))


def _paired(pred, y):
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(y, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty input")
    if p.size != t.size:
        raise ValueError(f"length mismatch: {p.size} vs {t.size}")
    return p, t


def _nonempty(x, name):
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr
