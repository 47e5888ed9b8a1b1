"""Plain two-player supervised training loop, written independently of the
minimax trainer, for checking that a zero gap weight isolates the adversary.

Mirrors the alternating structure (fair predictor step, then encoder step,
each with its own Adam state) and the seed derivation, but contains no
adversary and no gap machinery at all.
"""
import numpy as np

from minifair.neural import (
    adam_step,
    backward,
    forward,
    init_adam,
    init_mlp,
    loss_grad,
)
from minifair.trainer import TrainConfig, player_seeds


def train_supervised(data, cfg: TrainConfig):
    """Returns (encoder, fair_predictor) trained with the plain task loss."""
    enc_seed, f1_seed, _, shuffle_seed = player_seeds(cfg.seed)
    x_dim = data.X.shape[1]
    encoder = init_mlp(
        [x_dim, cfg.encoder_hidden, cfg.z_dim], ["leaky_relu", "identity"], enc_seed
    )
    fair = init_mlp(
        [cfg.z_dim, cfg.predictor_hidden, 1], ["leaky_relu", "identity"], f1_seed
    )
    rng = np.random.default_rng(shuffle_seed)
    enc_state = init_adam(encoder, lr=cfg.lr)
    fair_state = init_adam(fair, lr=cfg.lr)
    n = data.n_rows
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = data.X[idx], data.y[idx]
            # predictor step
            z = forward(encoder, xb)
            s1 = forward(fair, z)[:, 0]
            g1 = loss_grad(cfg.loss_kind, s1, yb)
            fair_pass = forward(fair, z, record=True)
            adam_step(fair, backward(fair, fair_pass, g1.reshape(-1, 1)), fair_state)
            # encoder step with the updated predictor held fixed
            z = forward(encoder, xb)
            s1 = forward(fair, z)[:, 0]
            g1 = loss_grad(cfg.loss_kind, s1, yb)
            d_z = backward(fair, forward(fair, z, record=True), g1.reshape(-1, 1)).inputs
            enc_pass = forward(encoder, xb, record=True)
            adam_step(encoder, backward(encoder, enc_pass, d_z), enc_state)
    return encoder, fair
