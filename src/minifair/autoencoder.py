"""Autoencoders: the frozen sensitive-attribute embedder and the generic
feature autoencoder used by the AE baseline.

The sensitive embedder is pre-trained once with MSE reconstruction and never
updated during minimax training; its output is materialized into an
EmbeddingTable with one row per sensitive-category combination. A
combination is keyed by its one-hot row as a tuple, which needs no
attribute block layout, so a lookup is one dictionary read per row plus one
fancy index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import MLP, forward, backward, init_adam, adam_step, init_mlp, loss_grad

AE_INPUT_MODES = ("sensitive_only", "all_features")


@dataclass
class Autoencoder:
    encoder: MLP
    decoder: MLP
    latent_dim: int


@dataclass
class SensitiveAutoencoder:
    """Frozen embedder from one-hot sensitive attributes to an e-vector.

    The encoder was trained on [X | S_onehot], with a zero-width X in
    sensitive_only mode. Each combination's mean train-split X row is kept as
    its context, so embeddings stay a deterministic function of the
    combination alone.
    """

    core: Autoencoder
    e: int
    combos: dict          # one-hot row tuple -> row of context
    context: np.ndarray   # (k, d) mean train-split X per combination


@dataclass
class EmbeddingTable:
    """Embedding per sensitive-category combination observed in training."""

    combos: dict          # one-hot row tuple -> row of vectors
    vectors: np.ndarray   # (k, e)

    @property
    def e(self) -> int:
        return self.vectors.shape[1]

    def lookup_rows(self, S_onehot) -> np.ndarray:
        return self.vectors[combo_indices(self.combos, S_onehot)]


def first_seen_combos(S_onehot):
    """Distinct one-hot rows as {row tuple: index} in first-seen order, and
    each row's index among them."""
    combos = {}
    rows = np.asarray(S_onehot, dtype=float).tolist()
    inverse = np.array([combos.setdefault(tuple(r), len(combos)) for r in rows], dtype=np.intp)
    return combos, inverse


def combo_indices(combos, S_onehot) -> np.ndarray:
    """Index in combos of each one-hot row of S_onehot."""
    S = np.asarray(S_onehot, dtype=float)
    width = len(next(iter(combos), ()))
    if S.ndim != 2 or (combos and S.shape[1] != width):
        raise ValueError(f"one-hot rows of shape {S.shape} do not have width {width}")
    try:
        return np.array([combos[tuple(row)] for row in S.tolist()], dtype=np.intp)
    except KeyError as exc:
        raise KeyError(
            f"sensitive combination {exc.args[0]} was not seen during pretraining"
        ) from None


def fit_autoencoder(inputs, latent_dim, epochs=100, lr=1e-3, batch_size=64,
                    seed=0, targets=None) -> Autoencoder:
    """Train an encoder/decoder pair with MSE reconstruction and Adam.

    targets defaults to the inputs; passing a narrower target matrix trains a
    decoder that reconstructs only those columns.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = inputs if targets is None else np.asarray(targets, dtype=float)
    if latent_dim < 1:
        raise ValueError("latent_dim must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    n, d_in = inputs.shape
    d_out = targets.shape[1]
    hidden = max(4, 2 * latent_dim)
    seeds = np.random.SeedSequence(seed).generate_state(3)
    encoder = init_mlp([d_in, hidden, latent_dim], ["leaky_relu", "identity"], int(seeds[0]))
    decoder = init_mlp([latent_dim, hidden, d_out], ["leaky_relu", "identity"], int(seeds[1]))
    rng = np.random.default_rng(int(seeds[2]))
    enc_state = init_adam(encoder, lr=lr)
    dec_state = init_adam(decoder, lr=lr)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x = inputs[idx]
            t = targets[idx]
            enc = forward(encoder, x, record=True)
            dec = forward(decoder, enc.output, record=True)
            g_flat = loss_grad("mse", dec.output.ravel(), t.ravel())
            g_out = g_flat.reshape(dec.output.shape)
            dec_grads = backward(decoder, dec, g_out)
            enc_grads = backward(encoder, enc, dec_grads.inputs)
            adam_step(decoder, dec_grads, dec_state)
            adam_step(encoder, enc_grads, enc_state)
    return Autoencoder(encoder, decoder, latent_dim)


def pretrain(S_onehot, e, epochs, seed, X=None, input_mode="sensitive_only",
             lr=1e-3, batch_size=64) -> SensitiveAutoencoder:
    """Pre-train the sensitive embedder; it is frozen after this call.

    The embedding must compress: e has to be smaller than the one-hot width.
    The encoder input is [X | S_onehot] and the decoder reconstructs only the
    one-hot block; sensitive_only mode is the same with a zero-width X.
    """
    S = np.asarray(S_onehot, dtype=float)
    if e < 1:
        raise ValueError("embedding dimension must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if e >= S.shape[1]:
        raise ValueError(
            f"embedding dim {e} must be smaller than one-hot width {S.shape[1]}"
        )
    if input_mode not in AE_INPUT_MODES:
        raise ValueError(f"unknown input mode {input_mode!r}")
    if input_mode == "sensitive_only":
        X = np.zeros((S.shape[0], 0))
    elif X is None:
        raise ValueError("all_features mode needs the feature matrix X")
    X = np.asarray(X, dtype=float)
    core = fit_autoencoder(
        np.hstack([X, S]), e, epochs=epochs, lr=lr, batch_size=batch_size,
        seed=seed, targets=S,
    )
    combos, inverse = first_seen_combos(S)
    sums = np.zeros((len(combos), X.shape[1]))
    np.add.at(sums, inverse, X)  # unbuffered, in row order
    context = sums / np.bincount(inverse, minlength=len(combos))[:, None]
    return SensitiveAutoencoder(core, e, combos, context)


def embed(ae: SensitiveAutoencoder, S_onehot) -> np.ndarray:
    """Deterministic (n, e) embedding of one-hot sensitive rows."""
    S = np.asarray(S_onehot, dtype=float)
    if S.ndim != 2:
        raise ValueError("S_onehot must be 2-D")
    if S.shape[0] == 0:
        return np.zeros((0, ae.e))
    context = ae.context[combo_indices(ae.combos, S)]
    return forward(ae.core.encoder, np.hstack([context, S]))


def build_embedding_table(ae: SensitiveAutoencoder, S_onehot) -> EmbeddingTable:
    """Materialize embeddings for every combination present in S_onehot."""
    S = np.asarray(S_onehot, dtype=float)
    combos, _ = first_seen_combos(S)
    rows = np.array(list(combos), dtype=float).reshape(len(combos), S.shape[1])
    return EmbeddingTable(combos, embed(ae, rows))
