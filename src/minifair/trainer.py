"""Alternating three-player training: invariant encoder, fair predictor, and
sensitive-aware adversary.

Per minibatch the players update round-robin, one Adam step each, each with
its own Adam state:

  1. the fair predictor descends its own prediction loss, so it keeps
     recalibrating and the gap pressure acts on the representation, not on a
     uniform score shift;
  2. the encoder descends the total objective
         total = loss(y, fair) + lambda * mean(h(fair - aware)),
     gradients flowing through both predictors into the latent code while
     their parameters stay fixed;
  3. the adversary descends its own prediction loss, so it stays a strong
     sensitive-aware predictor.

This is the usual alternating-adversary practice (Madras et al., LAFTR,
arXiv:1802.06309).

Each minibatch records the three players' passes once and backpropagates
through the records. A pass is recorded again only after a player it depends
on moved: the fair pass after the fair update, the encoder and adversary
passes after the encoder update.

h is a LeakyReLU with configurable slope, taken per sample on raw scores and
averaged over the batch. The frozen sensitive embedding table supplies the
adversary's extra input and is never mutated here.

train advances the models of L gap weights in lock-step. Each player is one
stacked network (neural.stack of the seeded initial network: weights
(L, in, out), biases (L, out)) with stacked Adam moments, and lambda is an
(L, 1) column. Every slice reads the same minibatch rows; the encoder's
(n, d) input is shared by broadcasting. A minibatch step logs the losses and
checks each slice's fair, adversary and encoder losses, in that order. A
slice that trips the guard becomes its lambda's TrainingDiverged and is
dropped from every stack before any player moves; the remaining slices then
redo the step without it. Slices never mix, so each lambda's parameters and
history are bitwise those of training it alone, and each trained lambda comes
back as a plain (unstacked) ThreePlayerModel of views into the stacks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autoencoder import EmbeddingTable, SensitiveAutoencoder, build_embedding_table
from .data import ProcessedDataset
from .neural import (
    LOSS_KINDS,
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
    stack,
    take,
    take_adam,
)

# A run is aborted as diverged when any logged loss passes this bound.
DIVERGENCE_BOUND = 1e6
# The losses the guard checks, in order: fair, adversary, encoder's total.
GUARD_PHASES = ("fair_predictor", "adversary", "encoder")


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
    loss_kind: str = "smooth_l1"
    seed: int = 0
    z_dim: int = 8
    encoder_hidden: int = 32
    predictor_hidden: int = 16

    def __post_init__(self):
        if not self.lam >= 0.0:  # also rejects NaN
            raise ValueError("lambda must be >= 0")
        if not self.lr > 0.0:
            raise ValueError("lr must be > 0")
        if not math.isfinite(self.h_slope):
            raise ValueError("h_slope must be finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        for name in ("z_dim", "encoder_hidden", "predictor_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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


def train(data: ProcessedDataset, ae: SensitiveAutoencoder, cfg: TrainConfig,
          lambdas=None):
    """Run the alternating minimax loop on a training split, for one gap
    weight or for several in lock-step.

    Deterministic for a fixed (data, cfg.seed); minibatch order reshuffles
    each epoch under the run seed. Without `lambdas`, trains at cfg.lam and
    returns the TrainedFairModel, raising TrainingDiverged when a logged loss
    goes non-finite or exceeds DIVERGENCE_BOUND. With a list of gap weights,
    cfg.lam is not read and the result holds, for each λ in order, its
    TrainedFairModel or the TrainingDiverged that stopped it; each equals what
    training that λ alone gives.
    """
    n = data.n_rows
    if n < cfg.batch_size:
        raise ValueError(f"need at least batch_size={cfg.batch_size} training rows, got {n}")
    lams = np.array([cfg.lam] if lambdas is None else lambdas, dtype=float)
    if lams.size == 0:
        raise ValueError("lambda list must be non-empty")
    if not np.all(lams >= 0.0):  # also rejects NaN
        raise ValueError("lambda must be >= 0")
    table = build_embedding_table(ae, data.S_onehot)
    plain = init_three_player(data.X.shape[1], table, cfg)
    model = ThreePlayerModel(*(stack(net, lams.size) for net in _players(plain)), table)
    states = [init_adam(net, lr=cfg.lr) for net in _players(model)]
    _, _, _, shuffle_seed = player_seeds(cfg.seed)
    rng = np.random.default_rng(shuffle_seed)

    s_e_all = table.lookup_rows(data.S_onehot)
    X, y = data.X, data.y
    outcomes = [None] * lams.size
    histories = [[] for _ in outcomes]
    live = np.arange(lams.size)  # the λ index of each slice of the stack
    lam = lams[:, None]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        sums = np.zeros((live.size, 4))
        weight = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb, se_b = X[idx], y[idx], s_e_all[idx]
            while True:
                logged, tripped = _step(model, states, xb, yb, se_b, lam, cfg)
                if not tripped:
                    break
                for i, phase, value in tripped:
                    outcomes[live[i]] = TrainingDiverged(epoch, phase, value)
                keep = np.setdiff1d(np.arange(live.size), [i for i, _, _ in tripped])
                live, lam, sums = live[keep], lam[keep], sums[keep]
                model = _take_slices(model, keep)
                states = [take_adam(state, keep) for state in states]
                if not live.size:
                    return _outcome(outcomes, lambdas)
            sums += logged * idx.size
            weight += idx.size
        for i, (fair_v, adv_v, _, gap_v) in zip(live, sums / weight):
            histories[i].append(EpochStats(float(fair_v), float(adv_v), float(gap_v)))
    for i, slot in enumerate(live):
        outcomes[slot] = TrainedFairModel(_take_slices(model, i), histories[slot])
    return _outcome(outcomes, lambdas)


def _players(model: ThreePlayerModel):
    return model.encoder, model.fair_predictor, model.sensitive_predictor


def _take_slices(model: ThreePlayerModel, index) -> ThreePlayerModel:
    """neural.take of every player of a stacked model."""
    return ThreePlayerModel(*(take(net, index) for net in _players(model)), model.embedding)


def _outcome(outcomes, lambdas):
    """train's result: every outcome for a λ list, else the one outcome."""
    if lambdas is not None:
        return outcomes
    if isinstance(outcomes[0], TrainingDiverged):
        raise outcomes[0]
    return outcomes[0]


def _gap_grads(s1, s2, lam, h_slope, nb):
    """d(total)/d s1 and d(total)/d s2 contributions of the gap term."""
    h_prime = leaky_relu_grad(s1 - s2, h_slope)
    g = lam * h_prime / nb
    return g, -g


def _join(z, se_b):
    """[z | se_b] per slice: the adversary's input from a stacked code."""
    k = z.shape[-1]
    zs = np.empty(z.shape[:-1] + (k + se_b.shape[-1],))
    zs[..., :k] = z
    zs[..., k:] = se_b
    return zs


def _step(model, states, xb, yb, se_b, lam, cfg):
    """One minibatch for every slice of a stacked model: log the pre-update
    losses, then update the fair predictor, the encoder and the adversary in
    turn. lam is the (L, 1) column of the slices' gap weights.

    Returns the (L, 4) logged (fair_loss, adversary_loss, total, gap_term),
    total being the objective the encoder descends, and the (slice, phase,
    value) of each slice whose first three trip the divergence guard. If any
    slice trips it, no player moves.
    """
    enc_state, fair_state, aware_state = states
    nb = len(xb)
    gap_on = lam.any()
    enc = forward(model.encoder, xb, record=True)
    fair = forward(model.fair_predictor, enc.output, record=True)
    aware = forward(model.sensitive_predictor, _join(enc.output, se_b), record=True)

    s1, s2 = fair.output[..., 0], aware.output[..., 0]
    logged = np.empty((len(lam), 4))
    logged[:, 0] = loss(cfg.loss_kind, s1, yb)
    logged[:, 1] = loss(cfg.loss_kind, s2, yb)
    logged[:, 3] = leaky_relu(s1 - s2, cfg.h_slope).sum(axis=-1) / nb
    logged[:, 2] = logged[:, 0] + lam[:, 0] * logged[:, 3]
    if not np.abs(logged[:, :3]).max() <= DIVERGENCE_BOUND:  # also catches NaN
        return logged, _tripped(logged[:, :3])

    g1 = loss_grad(cfg.loss_kind, s1, yb)
    grads = backward(model.fair_predictor, fair, g1[..., None])
    adam_step(model.fair_predictor, grads, fair_state)
    fair = forward(model.fair_predictor, enc.output, record=True)

    g1 = loss_grad(cfg.loss_kind, fair.output[..., 0], yb)
    if gap_on:
        g_gap1, g_gap2 = _gap_grads(fair.output[..., 0], s2, lam, cfg.h_slope, nb)
        g1 = g1 + g_gap1
    d_z = backward(model.fair_predictor, fair, g1[..., None]).inputs
    if gap_on:
        d_zs = backward(model.sensitive_predictor, aware, g_gap2[..., None]).inputs
        d_z = d_z + d_zs[..., : model.z_dim]
    adam_step(model.encoder, backward(model.encoder, enc, d_z), enc_state)
    enc = forward(model.encoder, xb, record=True)
    aware = forward(model.sensitive_predictor, _join(enc.output, se_b), record=True)

    g2 = loss_grad(cfg.loss_kind, aware.output[..., 0], yb)
    grads = backward(model.sensitive_predictor, aware, g2[..., None])
    adam_step(model.sensitive_predictor, grads, aware_state)
    return logged, []


def _tripped(checked):
    """(slice, phase, value) of each slice whose fair, adversary or encoder
    loss, checked in that order, is non-finite or exceeds DIVERGENCE_BOUND.

    checked is (L, 3): per slice the fair and adversary losses and the total
    objective the encoder descends.
    """
    bad = ~(np.abs(checked) <= DIVERGENCE_BOUND)  # NaN compares False
    out = []
    for i in np.flatnonzero(bad.any(axis=1)):
        k = int(bad[i].argmax())
        out.append((int(i), GUARD_PHASES[k], float(checked[i, k])))
    return out
