"""The sensitive embedder's old combination keying, kept as a test oracle.

The embedding table used to key each combination by a tuple of label
indices, decoded by an argmax over each attribute's one-hot block, so it
needed the block layout. The all_features context (the mean train-split X
row per combination) was summed by a loop over the rows in row order, keyed
by the raw one-hot row. test_embedding.py checks bit for bit that the
single one-hot-row key of minifair.autoencoder gives the same context, the
same embeddings and the same table lookups.
"""
import numpy as np

from minifair.autoencoder import fit_autoencoder
from minifair.neural import forward


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


def fit_core(S, e, epochs, seed, X=None):
    """The embedder's autoencoder: on S alone, or on [X | S] reconstructing S."""
    if X is None:
        return fit_autoencoder(S, e, epochs=epochs, seed=seed)
    return fit_autoencoder(np.hstack([X, S]), e, epochs=epochs, seed=seed, targets=S)


def combo_context(S, X):
    """One-hot row tuple -> mean X row, summed over the rows in row order."""
    context = {}
    counts = {}
    for i in range(S.shape[0]):
        key = tuple(S[i].tolist())
        if key not in context:
            context[key] = np.zeros(X.shape[1])
            counts[key] = 0
        context[key] += X[i]
        counts[key] += 1
    return {k: v / counts[k] for k, v in context.items()}


def embed(encoder, S, context=None):
    """The encoder on S alone, or on each row's context next to the row."""
    if context is None:
        return forward(encoder, S)
    rows = [np.concatenate([context[tuple(S[i].tolist())], S[i]]) for i in range(len(S))]
    return forward(encoder, np.array(rows))


def build_table(encoder, S, group_sizes, context=None):
    """Label tuple -> embedding of the first row with that combination."""
    combos = decode_onehot_combos(S, group_sizes)
    first = {}
    for i, combo in enumerate(combos):
        first.setdefault(combo, i)
    if not first:
        return {}
    embedded = embed(encoder, S[list(first.values())], context)
    return {combo: row.copy() for combo, row in zip(first, embedded)}


def lookup_rows(table, S, group_sizes, e):
    out = np.empty((len(S), e))
    for i, combo in enumerate(decode_onehot_combos(S, group_sizes)):
        out[i] = table[combo]
    return out
