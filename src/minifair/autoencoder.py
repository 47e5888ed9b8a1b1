"""Autoencoders: the frozen sensitive-attribute embedder and the generic
feature autoencoder used by the AE baseline.

The sensitive embedder is pre-trained once with MSE reconstruction and never
updated during minimax training; its output is materialized into an
EmbeddingTable keyed by the sensitive-category combination so every lookup is
a pure dictionary read.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neural import MLP, forward, backward, init_adam, adam_step, init_mlp, loss, loss_grad

AE_INPUT_MODES = ("sensitive_only", "all_features")


@dataclass
class Autoencoder:
    encoder: MLP
    decoder: MLP
    latent_dim: int


@dataclass
class SensitiveAutoencoder:
    """Frozen embedder from one-hot sensitive attributes to an e-vector.

    In all_features mode the encoder was trained on [X | S_onehot]; the mean
    train-split X per category combination is kept so embeddings stay a
    deterministic function of the combination alone.
    """

    core: Autoencoder
    e: int
    input_mode: str = "sensitive_only"
    combo_context: dict | None = None  # combo tuple -> mean X row (all_features)


@dataclass
class EmbeddingTable:
    """Embedding per sensitive-category combination observed in training."""

    vectors: dict          # tuple of label indices -> (e,) array
    group_sizes: tuple     # one-hot block widths, one per attribute
    e: int

    def lookup_rows(self, S_onehot) -> np.ndarray:
        combos = decode_onehot_combos(S_onehot, self.group_sizes)
        out = np.empty((len(combos), self.e))
        for i, combo in enumerate(combos):
            try:
                out[i] = self.vectors[combo]
            except KeyError:
                raise KeyError(
                    f"sensitive combination {combo} was not seen during pretraining"
                ) from None
        return out


def decode_onehot_combos(S_onehot, group_sizes):
    """Label-index tuples for each one-hot row, one index per attribute block."""
    S = np.asarray(S_onehot, dtype=float)
    if S.shape[1] != sum(group_sizes):
        raise ValueError(
            f"one-hot width {S.shape[1]} does not match attribute blocks {group_sizes}"
        )
    labels = []
    start = 0
    for size in group_sizes:
        labels.append(S[:, start : start + size].argmax(axis=1))
        start += size
    return [tuple(int(v) for v in row) for row in zip(*labels)] if labels else [()] * len(S)


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


def reconstruction_mse(ae: Autoencoder, inputs, targets=None) -> float:
    inputs = np.asarray(inputs, dtype=float)
    targets = inputs if targets is None else np.asarray(targets, dtype=float)
    recon = forward(ae.decoder, forward(ae.encoder, inputs))
    return loss("mse", recon.ravel(), targets.ravel())


def pretrain(S_onehot, e, epochs, seed, X=None, input_mode="sensitive_only",
             lr=1e-3, batch_size=64) -> SensitiveAutoencoder:
    """Pre-train the sensitive embedder; it is frozen after this call.

    The embedding must compress: e has to be smaller than the one-hot width.
    In all_features mode X is concatenated to the encoder input while the
    decoder still reconstructs only the one-hot block.
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
        core = fit_autoencoder(S, e, epochs=epochs, lr=lr, batch_size=batch_size, seed=seed)
        return SensitiveAutoencoder(core, e, input_mode)
    if X is None:
        raise ValueError("all_features mode needs the feature matrix X")
    X = np.asarray(X, dtype=float)
    core = fit_autoencoder(
        np.hstack([X, S]), e, epochs=epochs, lr=lr, batch_size=batch_size,
        seed=seed, targets=S,
    )
    context = {}
    counts = {}
    for i in range(S.shape[0]):
        key = tuple(S[i].tolist())
        if key not in context:
            context[key] = np.zeros(X.shape[1])
            counts[key] = 0
        context[key] += X[i]
        counts[key] += 1
    context = {k: v / counts[k] for k, v in context.items()}
    return SensitiveAutoencoder(core, e, input_mode, context)


def embed(ae: SensitiveAutoencoder, S_onehot) -> np.ndarray:
    """Deterministic (n, e) embedding of one-hot sensitive rows."""
    S = np.asarray(S_onehot, dtype=float)
    if S.ndim != 2:
        raise ValueError("S_onehot must be 2-D")
    if S.shape[0] == 0:
        return np.zeros((0, ae.e))
    if ae.input_mode == "sensitive_only":
        return forward(ae.core.encoder, S)
    rows = []
    for i in range(S.shape[0]):
        key = tuple(S[i].tolist())
        try:
            rows.append(np.concatenate([ae.combo_context[key], S[i]]))
        except KeyError:
            raise KeyError(f"sensitive combination {key} was not seen during pretraining") from None
    return forward(ae.core.encoder, np.array(rows))


def build_embedding_table(ae: SensitiveAutoencoder, S_onehot, group_sizes) -> EmbeddingTable:
    """Materialize embeddings for every combination present in S_onehot."""
    S = np.asarray(S_onehot, dtype=float)
    combos = decode_onehot_combos(S, group_sizes)
    vectors = {}
    seen_rows = {}
    for i, combo in enumerate(combos):
        if combo not in seen_rows:
            seen_rows[combo] = i
    if seen_rows:
        idx = list(seen_rows.values())
        embedded = embed(ae, S[idx])
        for combo, row in zip(seen_rows.keys(), embedded):
            vectors[combo] = row.copy()
    return EmbeddingTable(vectors, tuple(group_sizes), ae.e)
