"""Test oracles for the minimax trainer: the adversary's scores and the full
objective of one batch, written as plain compositions of the players.

`trainer._step` never evaluates the objective; it backpropagates through
recorded passes. These functions give the finite-difference check of its
gradients something independent to differentiate.
"""
import numpy as np

from minifair.neural import forward, leaky_relu, loss
from minifair.trainer import ThreePlayerModel, TrainConfig, encode, fair_predict


def sensitive_predict(model: ThreePlayerModel, X_batch, S_onehot_batch) -> np.ndarray:
    """Adversary scores from the latent code and the sensitive embedding."""
    z = encode(model, X_batch)
    s_e = model.embedding.lookup_rows(S_onehot_batch)
    return forward(model.sensitive_predictor, np.hstack([z, s_e]))[:, 0]


def objective(model: ThreePlayerModel, X_batch, S_onehot_batch, y_batch,
              cfg: TrainConfig):
    """(total, fair_loss, gap_term) of the minimax objective on one batch."""
    X_batch = np.asarray(X_batch, dtype=float)
    if X_batch.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    s1 = fair_predict(model, X_batch)
    s2 = sensitive_predict(model, X_batch, S_onehot_batch)
    fair_loss = loss(cfg.loss_kind, s1, y_batch)
    gap_term = float(np.mean(leaky_relu(s1 - s2, cfg.h_slope)))
    return fair_loss + cfg.lam * gap_term, fair_loss, gap_term
