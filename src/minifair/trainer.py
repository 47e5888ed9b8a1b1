"""Alternating three-player training: invariant encoder, fair predictor, and
sensitive-aware adversary.

Per minibatch the players update round-robin, one at a time, each with its
own Adam state:

  1. the fair predictor updates according to fair_mode: "own_loss" descends
     its own prediction loss (so it keeps recalibrating and the gap pressure
     acts on the representation, not on a uniform score shift), "total"
     descends the full objective
         total = loss(y, fair) + lambda * mean(h(fair - aware));
  2. the encoder descends the total objective, gradients flowing through
     both predictors into the latent code while their parameters stay fixed;
  3. the adversary updates according to adversary_mode: "own_loss" descends
     its own prediction loss (it stays a strong sensitive-aware predictor),
     "ascend_gap" ascends the total objective instead.

The one-sided leaky gap penalty makes "total" fair_mode drift the fair
scores systematically below the adversary's, so "own_loss" is the default
for both predictors.

Each minibatch records the three players' passes once and backpropagates
through the records. A pass is recorded again only after a player it depends
on moved: the fair pass after each fair update, the encoder and adversary
passes after each encoder update (plus the fair pass before another encoder
step or an ascend_gap adversary), the adversary pass between its own steps.

h is a LeakyReLU with configurable slope, taken per sample on raw scores and
averaged over the batch. The frozen sensitive embedding table supplies the
adversary's extra input and is never mutated here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import EmbeddingTable, SensitiveAutoencoder, build_embedding_table
from .data import ProcessedDataset
from .neural import (
    MLP,
    adam_step,
    backward,
    forward,
    init_adam,
    init_mlp,
    leaky_relu,
    leaky_relu_grad,
    loss,
    loss_grad,
)

ADVERSARY_MODES = ("own_loss", "ascend_gap")
FAIR_MODES = ("own_loss", "total")

# A run is aborted as diverged when any logged loss passes this bound.
DIVERGENCE_BOUND = 1e6


class TrainingDiverged(RuntimeError):
    """A loss went non-finite or exploded; carries epoch and phase."""

    def __init__(self, epoch: int, phase: str, value: float):
        super().__init__(
            f"training diverged at epoch {epoch}, phase {phase} (loss {value!r})"
        )
        self.epoch = epoch
        self.phase = phase
        self.value = value


@dataclass
class TrainConfig:
    lam: float = 1.0            # weight of the prediction-gap penalty
    epochs: int = 200
    batch_size: int = 64
    lr: float = 1e-3
    h_slope: float = 0.01
    adversary_mode: str = "own_loss"
    fair_mode: str = "own_loss"
    loss_kind: str = "smooth_l1"
    seed: int = 0
    z_dim: int = 8
    encoder_hidden: int = 32
    predictor_hidden: int = 16
    steps_per_player: int = 1

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.adversary_mode not in ADVERSARY_MODES:
            raise ValueError(f"unknown adversary mode {self.adversary_mode!r}")
        if self.fair_mode not in FAIR_MODES:
            raise ValueError(f"unknown fair mode {self.fair_mode!r}")
        if self.steps_per_player < 1:
            raise ValueError("steps_per_player must be >= 1")


@dataclass
class ThreePlayerModel:
    encoder: MLP               # X dim -> z_dim
    fair_predictor: MLP        # z_dim -> 1
    sensitive_predictor: MLP   # z_dim + e -> 1
    embedding: EmbeddingTable  # frozen

    @property
    def z_dim(self) -> int:
        return self.encoder.out_dim


@dataclass
class EpochStats:
    fair_loss: float
    adversary_loss: float
    gap_term: float


@dataclass
class TrainedFairModel:
    model: ThreePlayerModel
    train_history: list = field(default_factory=list)


def init_three_player(x_dim: int, embedding: EmbeddingTable, cfg: TrainConfig) -> ThreePlayerModel:
    """Seeded player networks; child seeds derive from cfg.seed."""
    enc_seed, f1_seed, f2_seed, _ = player_seeds(cfg.seed)
    encoder = init_mlp(
        [x_dim, cfg.encoder_hidden, cfg.z_dim], ["leaky_relu", "identity"], enc_seed
    )
    fair = init_mlp([cfg.z_dim, cfg.predictor_hidden, 1], ["leaky_relu", "identity"], f1_seed)
    aware = init_mlp(
        [cfg.z_dim + embedding.e, cfg.predictor_hidden, 1],
        ["leaky_relu", "identity"],
        f2_seed,
    )
    return ThreePlayerModel(encoder, fair, aware, embedding)


def player_seeds(seed: int):
    """(encoder, fair, adversary, shuffle) child seeds for one run seed."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return int(state[0]), int(state[1]), int(state[2]), int(state[3])


def encode(model: ThreePlayerModel, X_batch) -> np.ndarray:
    return forward(model.encoder, X_batch)


def fair_predict(model: ThreePlayerModel, X_batch) -> np.ndarray:
    """Scores of the fair path; sensitive attributes are not an input."""
    return forward(model.fair_predictor, encode(model, X_batch))[:, 0]


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


def train(data: ProcessedDataset, ae: SensitiveAutoencoder, cfg: TrainConfig) -> TrainedFairModel:
    """Run the alternating minimax loop on a training split.

    Deterministic for a fixed (data, cfg.seed); minibatch order reshuffles
    each epoch under the run seed. Raises TrainingDiverged when a logged loss
    goes non-finite or exceeds DIVERGENCE_BOUND.
    """
    n = data.n_rows
    if n < cfg.batch_size:
        raise ValueError(f"need at least batch_size={cfg.batch_size} training rows, got {n}")
    table = build_embedding_table(ae, data.S_onehot, data.sensitive_group_sizes)
    model = init_three_player(data.X.shape[1], table, cfg)
    _, _, _, shuffle_seed = player_seeds(cfg.seed)
    rng = np.random.default_rng(shuffle_seed)

    enc_state = init_adam(model.encoder, lr=cfg.lr)
    fair_state = init_adam(model.fair_predictor, lr=cfg.lr)
    aware_state = init_adam(model.sensitive_predictor, lr=cfg.lr)

    s_e_all = table.lookup_rows(data.S_onehot)
    X, y = data.X, data.y
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = np.zeros(3)
        weight = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logged = _step(model, enc_state, fair_state, aware_state,
                           X[idx], y[idx], s_e_all[idx], cfg, epoch)
            sums += np.array(logged) * idx.size
            weight += idx.size
        history.append(EpochStats(*(sums / weight)))
    return TrainedFairModel(model, history)


def _gap_grads(s1, s2, cfg, nb):
    """d(total)/d s1 and d(total)/d s2 contributions of the gap term."""
    h_prime = leaky_relu_grad(s1 - s2, cfg.h_slope)
    g = cfg.lam * h_prime / nb
    return g, -g


def _step(model, enc_state, fair_state, aware_state, xb, yb, se_b, cfg, epoch):
    """One minibatch: log the pre-update losses, then update the fair
    predictor, the encoder and the adversary in turn.

    Returns the logged (fair_loss, adversary_loss, gap_term).
    """
    nb = len(xb)
    enc = forward(model.encoder, xb, record=True)
    fair = forward(model.fair_predictor, enc.output, record=True)
    zs = np.hstack([enc.output, se_b])
    aware = forward(model.sensitive_predictor, zs, record=True)

    s1, s2 = fair.output[:, 0], aware.output[:, 0]
    fair_v = loss(cfg.loss_kind, s1, yb)
    adv_v = loss(cfg.loss_kind, s2, yb)
    gap_v = float(np.mean(leaky_relu(s1 - s2, cfg.h_slope)))
    _guard(fair_v, epoch, "fair_predictor")
    _guard(adv_v, epoch, "adversary")
    _guard(fair_v + cfg.lam * gap_v, epoch, "encoder")

    for _ in range(cfg.steps_per_player):
        g1 = loss_grad(cfg.loss_kind, fair.output[:, 0], yb)
        if cfg.fair_mode == "total" and cfg.lam != 0.0:
            g1 = g1 + _gap_grads(fair.output[:, 0], aware.output[:, 0], cfg, nb)[0]
        grads = backward(model.fair_predictor, fair, g1.reshape(-1, 1))
        adam_step(model.fair_predictor, grads, fair_state, "descend")
        fair = forward(model.fair_predictor, enc.output, record=True)

    for k in range(cfg.steps_per_player):
        g1 = loss_grad(cfg.loss_kind, fair.output[:, 0], yb)
        if cfg.lam != 0.0:
            g_gap1, g_gap2 = _gap_grads(fair.output[:, 0], aware.output[:, 0], cfg, nb)
            g1 = g1 + g_gap1
        d_z = backward(model.fair_predictor, fair, g1.reshape(-1, 1)).inputs
        if cfg.lam != 0.0:
            d_zs = backward(model.sensitive_predictor, aware, g_gap2.reshape(-1, 1)).inputs
            d_z = d_z + d_zs[:, : model.z_dim]
        adam_step(model.encoder, backward(model.encoder, enc, d_z), enc_state, "descend")
        enc = forward(model.encoder, xb, record=True)
        zs = np.hstack([enc.output, se_b])
        aware = forward(model.sensitive_predictor, zs, record=True)
        if k + 1 < cfg.steps_per_player or cfg.adversary_mode == "ascend_gap":
            fair = forward(model.fair_predictor, enc.output, record=True)

    for k in range(cfg.steps_per_player):
        if cfg.adversary_mode == "own_loss":
            g2 = loss_grad(cfg.loss_kind, aware.output[:, 0], yb)
        else:
            g2 = _gap_grads(fair.output[:, 0], aware.output[:, 0], cfg, nb)[1]
        grads = backward(model.sensitive_predictor, aware, g2.reshape(-1, 1))
        direction = "descend" if cfg.adversary_mode == "own_loss" else "ascend"
        adam_step(model.sensitive_predictor, grads, aware_state, direction)
        if k + 1 < cfg.steps_per_player:
            aware = forward(model.sensitive_predictor, zs, record=True)
    return fair_v, adv_v, gap_v


def _guard(value: float, epoch: int, phase: str):
    if not math.isfinite(value) or abs(value) > DIVERGENCE_BOUND:
        raise TrainingDiverged(epoch, phase, value)
