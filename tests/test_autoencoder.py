import numpy as np
import pytest

from minifair.autoencoder import (
    build_embedding_table,
    embed,
    fit_autoencoder,
    pretrain,
)
from minifair.neural import forward, loss
from net_params import param_arrays


def two_category_onehot(n=40, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    return onehot


def crossed_onehot(n=60, seed=1, sizes=(3, 2)):
    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for size in sizes:
        lab = rng.integers(0, size, size=n)
        block = np.zeros((n, size))
        block[np.arange(n), lab] = 1.0
        blocks.append(block)
        labels.append(lab)
    return np.hstack(blocks), np.stack(labels, axis=1)


class TestPretrain:
    def test_two_categories_separate(self):
        onehot = two_category_onehot()
        ae = pretrain(onehot, e=1, epochs=400, seed=0)
        vecs = embed(ae, np.eye(2))
        assert abs(vecs[0, 0] - vecs[1, 0]) >= 0.1

    def test_same_seed_identical_embeddings(self):
        onehot = two_category_onehot()
        a = pretrain(onehot, e=1, epochs=50, seed=5)
        b = pretrain(onehot, e=1, epochs=50, seed=5)
        assert np.array_equal(embed(a, onehot), embed(b, onehot))

    def test_training_reduces_reconstruction_error(self):
        onehot, _ = crossed_onehot()
        start = pretrain(onehot, e=2, epochs=1, seed=2)
        done = pretrain(onehot, e=2, epochs=300, seed=2)

        def reconstruction_mse(core):
            recon = forward(core.decoder, forward(core.encoder, onehot))
            return loss("mse", recon.ravel(), onehot.ravel())

        assert reconstruction_mse(done.core) < reconstruction_mse(start.core)

    def test_embedding_must_compress(self):
        onehot = two_category_onehot()
        with pytest.raises(ValueError):
            pretrain(onehot, e=2, epochs=1, seed=0)

    def test_bad_epochs_rejected(self):
        with pytest.raises(ValueError):
            pretrain(two_category_onehot(), e=1, epochs=0, seed=0)


class TestEmbed:
    def test_identical_rows_identical_vectors(self):
        onehot, _ = crossed_onehot()
        ae = pretrain(onehot, e=2, epochs=30, seed=3)
        row = onehot[0:1]
        stacked = np.vstack([row, row])
        out = embed(ae, stacked)
        assert np.array_equal(out[0], out[1])

    def test_empty_input(self):
        onehot = two_category_onehot()
        ae = pretrain(onehot, e=1, epochs=10, seed=0)
        out = embed(ae, np.zeros((0, 2)))
        assert out.shape == (0, 1)

    def test_values_bounded_after_training(self):
        onehot, _ = crossed_onehot(n=100)
        ae = pretrain(onehot, e=2, epochs=200, seed=4)
        assert np.all(np.abs(embed(ae, onehot)) < 1e3)

    def test_all_features_mode_uses_combo_context(self):
        onehot, _ = crossed_onehot(n=50, sizes=(2, 2))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        ae = pretrain(onehot, e=2, epochs=30, seed=1, X=x, input_mode="all_features")
        out1 = embed(ae, onehot[:5])
        out2 = embed(ae, onehot[:5])
        assert np.array_equal(out1, out2)
        # same combination always gets the same vector even when X differed
        combos = [tuple(r.tolist()) for r in onehot]
        first = {c: None for c in combos}
        vecs = embed(ae, onehot)
        for c, v in zip(combos, vecs):
            if first[c] is None:
                first[c] = v
            assert np.array_equal(first[c], v)

    def test_unseen_combination_raises_in_both_modes(self):
        onehot = np.zeros((4, 4))
        onehot[:, 0] = 1.0
        onehot[:, 2] = 1.0  # only combo (0, 0) observed
        unseen = np.array([[0.0, 1.0, 0.0, 1.0]])
        x = np.arange(8.0).reshape(4, 2)
        for mode in ("sensitive_only", "all_features"):
            ae = pretrain(onehot, e=1, epochs=5, seed=0, X=x, input_mode=mode)
            with pytest.raises(KeyError):
                embed(ae, unseen)

    def test_all_features_requires_x(self):
        onehot = two_category_onehot()
        with pytest.raises(ValueError):
            pretrain(onehot, e=1, epochs=5, seed=0, input_mode="all_features")


class TestEmbeddingTable:
    def test_one_entry_per_observed_combination(self):
        onehot, labels = crossed_onehot(n=80, sizes=(3, 2))
        ae = pretrain(onehot, e=2, epochs=20, seed=0)
        table = build_embedding_table(ae, onehot)
        observed = {tuple(row) for row in onehot.tolist()}
        assert len(observed) == len({tuple(row) for row in labels.tolist()})
        assert set(table.combos) == observed
        assert table.vectors.shape == (len(observed), 2)

    def test_lookup_matches_embed(self):
        onehot, _ = crossed_onehot(n=40, sizes=(2, 2))
        ae = pretrain(onehot, e=1, epochs=20, seed=0)
        table = build_embedding_table(ae, onehot)
        assert np.allclose(table.lookup_rows(onehot), embed(ae, onehot))

    def test_unseen_combination_raises(self):
        onehot = np.zeros((4, 4))
        onehot[:, 0] = 1.0
        onehot[:, 2] = 1.0  # only combo (0, 0) observed
        ae = pretrain(onehot, e=1, epochs=5, seed=0)
        table = build_embedding_table(ae, onehot)
        unseen = np.array([[0.0, 1.0, 0.0, 1.0]])
        with pytest.raises(KeyError):
            table.lookup_rows(unseen)

    def test_injective_on_training_categories(self):
        onehot, _ = crossed_onehot(n=200, sizes=(3, 2))
        ae = pretrain(onehot, e=2, epochs=400, seed=7)
        table = build_embedding_table(ae, onehot)
        vecs = table.vectors
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                assert np.linalg.norm(vecs[i] - vecs[j]) > 1e-3

    def test_width_mismatch(self):
        onehot, _ = crossed_onehot(n=20, sizes=(2, 2))
        table = build_embedding_table(pretrain(onehot, e=1, epochs=1, seed=0), onehot)
        with pytest.raises(ValueError):
            table.lookup_rows(np.zeros((2, 3)))


def test_fit_autoencoder_narrow_targets():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6))
    targets = x[:, :2]
    ae = fit_autoencoder(x, latent_dim=2, epochs=50, seed=0, targets=targets)
    assert ae.decoder.out_dim == 2


def test_fit_autoencoder_minibatch_runs_two_passes(monkeypatch):
    """Encoder and decoder run once each; backward replays neither."""
    from minifair import neural

    activations = []
    real_activate = neural._activate

    def counting_activate(z, kind):
        activations.append(kind)
        return real_activate(z, kind)

    monkeypatch.setattr(neural, "_activate", counting_activate)
    x = np.random.default_rng(0).normal(size=(16, 4))
    fit_autoencoder(x, latent_dim=2, epochs=1, batch_size=16, seed=0)
    assert len(activations) == 2 * 2  # two passes of two layers each


def test_param_snapshot_helper_sees_frozen_autoencoder():
    onehot = two_category_onehot()
    ae = pretrain(onehot, e=1, epochs=20, seed=0)
    before = [a.copy() for a in param_arrays(ae.core.encoder)]
    _ = embed(ae, onehot)
    for b, a in zip(before, param_arrays(ae.core.encoder)):
        assert np.array_equal(b, a)
