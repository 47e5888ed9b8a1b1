import itertools

import numpy as np
import pytest

from minifair.autoencoder import fit_autoencoder, pretrain
from minifair.baselines import (
    RIDGE,
    LinearModel,
    StumpEnsemble,
    build_representation,
    fit_linear,
    fit_stumps,
    predict,
)
from minifair.neural import sigmoid
from minifair.trainer import TrainConfig, train


@pytest.fixture(scope="module")
def law_with_model(law_dataset):
    ds, sp = law_dataset
    train_ds = ds.take(sp.train_indices)
    ae = pretrain(train_ds.S_onehot, e=2, epochs=30, seed=0)
    cfg = TrainConfig(epochs=3, batch_size=64, z_dim=4, encoder_hidden=16, predictor_hidden=8)
    trained = train(train_ds, ae, cfg)
    return ds, trained.model


class TestRepresentations:
    def test_unaware_is_exactly_x(self, law_dataset):
        ds, _ = law_dataset
        rep = build_representation("unaware", ds)
        assert np.array_equal(rep, ds.X)

    def test_full_concatenates_sensitive(self, law_dataset):
        ds, _ = law_dataset
        rep = build_representation("full", ds)
        assert rep.shape[1] == ds.X.shape[1] + ds.S_onehot.shape[1]
        assert np.array_equal(rep[:, : ds.X.shape[1]], ds.X)

    def test_invenc_has_zdim_columns(self, law_with_model):
        ds, model = law_with_model
        rep = build_representation("invenc", ds, trained=model)
        assert rep.shape == (ds.n_rows, model.z_dim)

    def test_ae_representation(self, law_dataset):
        ds, _ = law_dataset
        ae = fit_autoencoder(
            np.hstack([ds.X, ds.S_onehot]), latent_dim=3, epochs=5, seed=0
        )
        rep = build_representation("ae", ds, autoencoder=ae)
        assert rep.shape == (ds.n_rows, 3)

    def test_missing_models_rejected(self, law_dataset):
        ds, _ = law_dataset
        with pytest.raises(ValueError):
            build_representation("invenc", ds)
        with pytest.raises(ValueError):
            build_representation("ae", ds)

    def test_unaware_and_invenc_invariant_to_sensitive_relabeling(self, law_with_model):
        ds, model = law_with_model
        shuffled = ds.take(range(ds.n_rows))
        perm = np.random.default_rng(0).permutation(ds.n_rows)
        shuffled.S_onehot = ds.S_onehot[perm]
        shuffled.S_labels = ds.S_labels[perm]
        for kind in ("unaware", "invenc"):
            a = build_representation(kind, ds, trained=model)
            b = build_representation(kind, shuffled, trained=model)
            assert np.array_equal(a, b)


class TestFitLinear:
    def test_exact_linear_system(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(50, 3))
        w_true = np.array([1.5, -2.0, 0.5])
        y = f @ w_true + 3.0
        model = fit_linear(f, y, "identity")
        pred = predict(model, f)
        rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
        assert rmse < 1e-8

    def test_constant_target(self):
        f = np.random.default_rng(1).normal(size=(30, 2))
        model = fit_linear(f, np.full(30, 4.2), "identity")
        assert model.bias == pytest.approx(4.2, abs=1e-6)
        assert np.max(np.abs(model.weights)) < 1e-6

    def test_ridge_normal_equations_residual(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        model = fit_linear(f, y, "identity")
        design = np.hstack([f, np.ones((40, 1))])
        coef = np.concatenate([model.weights, [model.bias]])
        residual = (design.T @ design + RIDGE * np.eye(5)) @ coef - design.T @ y
        assert np.max(np.abs(residual)) <= 1e-8

    def test_logistic_separable_two_points(self):
        f = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = fit_linear(f, y, "logistic")
        scores = predict(model, f)
        hard = (sigmoid(scores) >= 0.5).astype(float)
        assert np.array_equal(hard, y)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_linear(np.ones((1, 2)), [1.0], "identity")


class TestFitStumps:
    def test_single_round_perfect_step_function(self):
        f = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        model = fit_stumps(f, y, "regression", rounds=1, learning_rate=1.0)
        assert np.allclose(predict(model, f), y)

    def test_constant_target(self):
        f = np.random.default_rng(0).normal(size=(20, 2))
        y = np.full(20, 2.5)
        model = fit_stumps(f, y, "regression", rounds=3, learning_rate=0.5)
        assert np.allclose(predict(model, f), 2.5)
        for _, _, left, right in model.stumps:
            assert abs(left) < 1e-12 and abs(right) < 1e-12

    def test_training_error_nonincreasing(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(60, 3))
        y = f[:, 0] * 2.0 + np.sin(f[:, 1]) + rng.normal(scale=0.1, size=60)
        model = fit_stumps(f, y, "regression", rounds=50, learning_rate=0.5)
        score = np.full(60, model.base_score)
        errors = []
        for stump in model.stumps:
            j, thr, left, right = stump
            score = score + model.learning_rate * np.where(f[:, j] <= thr, left, right)
            errors.append(float(np.mean((y - score) ** 2)))
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_threshold_scan_is_exhaustive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(5, 31))
            f = rng.normal(size=(n, 2))
            r = rng.normal(size=n)
            from minifair.baselines import _best_stump, _presort, _stump_values

            stump = _best_stump(_presort(f), r)
            best_sse = float(np.sum((r - _stump_values(f, stump)) ** 2))
            # brute force over every feature and every midpoint
            for j in range(2):
                values = np.unique(f[:, j])
                for a, b in zip(values, values[1:]):
                    thr = (a + b) / 2.0
                    left = f[:, j] <= thr
                    fit = np.where(left, r[left].mean(), r[~left].mean())
                    sse = float(np.sum((r - fit) ** 2))
                    assert best_sse <= sse + 1e-9

    def test_classification_base_score_is_log_odds(self):
        f = np.random.default_rng(5).normal(size=(40, 2))
        y = (np.arange(40) % 4 == 0).astype(float)  # mean 0.25
        model = fit_stumps(f, y, "classification", rounds=1, learning_rate=0.1)
        assert model.base_score == pytest.approx(np.log(0.25 / 0.75))

    def test_classification_learns_separable_data(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(100, 1))
        y = (f[:, 0] > 0).astype(float)
        model = fit_stumps(f, y, "classification", rounds=30, learning_rate=0.5)
        hard = (predict(model, f) >= 0.0).astype(float)
        assert np.mean(hard == y) == 1.0

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            fit_stumps(np.ones((5, 1)), np.ones(5), "regression", rounds=0)


class TestPredict:
    def test_zero_weight_linear_is_constant(self):
        model = LinearModel(np.zeros(3), 1.5, "identity")
        out = predict(model, np.random.default_rng(0).normal(size=(10, 3)))
        assert np.all(out == 1.5)

    def test_zero_stump_ensemble_is_base_score(self):
        model = StumpEnsemble(2, 0.1, [(0, 0.0, 0.0, 0.0), (0, 0.0, 0.0, 0.0)], 0.7)
        out = predict(model, np.zeros((4, 1)))
        assert np.all(out == 0.7)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = fit_stumps(f, y, "regression", rounds=5)
        assert np.array_equal(predict(model, f), predict(model, f))

    def test_dim_mismatch(self):
        model = LinearModel(np.zeros(3), 0.0, "identity")
        with pytest.raises(ValueError):
            predict(model, np.ones((2, 4)))
