import numpy as np
import pytest

from minifair.autoencoder import build_embedding_table, pretrain
from minifair.neural import forward, param_arrays
from minifair import trainer
from minifair.trainer import (
    TrainConfig,
    TrainingDiverged,
    encode,
    fair_predict,
    init_three_player,
    objective,
    sensitive_predict,
    train,
)
from supervised_reference import train_supervised

FAST = dict(epochs=5, batch_size=64, encoder_hidden=16, predictor_hidden=8, z_dim=4)


@pytest.fixture(scope="module")
def law_parts(law_dataset):
    ds, sp = law_dataset
    train_ds = ds.take(sp.train_indices)
    test_ds = ds.take(sp.test_indices)
    ae = pretrain(train_ds.S_onehot, e=2, epochs=40, seed=0)
    return train_ds, test_ds, ae


def small_model(train_ds, ae, cfg):
    table = build_embedding_table(ae, train_ds.S_onehot, train_ds.sensitive_group_sizes)
    return init_three_player(train_ds.X.shape[1], table, cfg)


class TestPredictors:
    def test_encode_deterministic_and_shaped(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        model = small_model(train_ds, ae, cfg)
        z1 = encode(model, train_ds.X[:10])
        z2 = encode(model, train_ds.X[:10])
        assert np.array_equal(z1, z2)
        assert z1.shape == (10, cfg.z_dim)

    def test_encoder_ignores_zero_weight_column(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        model = small_model(train_ds, ae, cfg)
        model.encoder.layers[0].weights[0, :] = 0.0
        a = train_ds.X[:1].copy()
        b = a.copy()
        b[0, 0] += 5.0
        assert np.array_equal(encode(model, a), encode(model, b))

    def test_fair_predict_ignores_sensitive_labels(self, law_parts):
        train_ds, _, ae = law_parts
        model = small_model(train_ds, ae, TrainConfig(**FAST))
        scores = fair_predict(model, train_ds.X[:20])
        # swapping S has no channel into the fair path at all
        assert scores.shape == (20,)
        again = fair_predict(model, train_ds.X[:20])
        assert np.array_equal(scores, again)

    def test_fair_predict_equals_composition(self, law_parts):
        train_ds, _, ae = law_parts
        model = small_model(train_ds, ae, TrainConfig(**FAST))
        composed = forward(model.fair_predictor, encode(model, train_ds.X[:7]))[:, 0]
        assert np.array_equal(fair_predict(model, train_ds.X[:7]), composed)

    def test_sensitive_predict_can_depend_on_s(self, law_parts):
        train_ds, _, ae = law_parts
        model = small_model(train_ds, ae, TrainConfig(**FAST))
        # same X, two different sensitive combinations seen in training
        combos = {tuple(r.tolist()) for r in train_ds.S_onehot}
        assert len(combos) >= 2
        it = iter(sorted(combos))
        s_a = np.array([next(it)])
        s_b = np.array([next(it)])
        x = train_ds.X[:1]
        out_a = sensitive_predict(model, x, s_a)
        out_b = sensitive_predict(model, x, s_b)
        assert abs(out_a[0] - out_b[0]) > 1e-9

    def test_sensitive_predict_deterministic(self, law_parts):
        train_ds, _, ae = law_parts
        model = small_model(train_ds, ae, TrainConfig(**FAST))
        a = sensitive_predict(model, train_ds.X[:5], train_ds.S_onehot[:5])
        b = sensitive_predict(model, train_ds.X[:5], train_ds.S_onehot[:5])
        assert np.array_equal(a, b)
        assert a.shape == (5,)


class TestObjective:
    def test_lambda_zero_reduces_to_fair_loss(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(lam=0.0, **FAST)
        model = small_model(train_ds, ae, cfg)
        total, fair_loss, _ = objective(
            model, train_ds.X[:32], train_ds.S_onehot[:32], train_ds.y[:32], cfg
        )
        assert total == fair_loss

    def test_identical_predictors_zero_gap(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        model = small_model(train_ds, ae, cfg)
        # adversary copies the fair predictor and zeroes its embedding path
        f1 = model.fair_predictor
        f2 = model.sensitive_predictor
        f2.layers[0].weights[: cfg.z_dim, :] = f1.layers[0].weights
        f2.layers[0].weights[cfg.z_dim :, :] = 0.0
        f2.layers[0].bias[:] = f1.layers[0].bias
        f2.layers[1].weights[:] = f1.layers[1].weights
        f2.layers[1].bias[:] = f1.layers[1].bias
        _, _, gap = objective(
            model, train_ds.X[:16], train_ds.S_onehot[:16], train_ds.y[:16], cfg
        )
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_gap_contribution(self):
        # single sample with prediction gap -2, slope 0.01, lambda 10
        from minifair.neural import leaky_relu

        gap = leaky_relu(-2.0, 0.01)
        assert 10.0 * gap == pytest.approx(-0.2)

    def test_decomposition_identity(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(lam=3.7, **FAST)
        model = small_model(train_ds, ae, cfg)
        total, fair_loss, gap = objective(
            model, train_ds.X[:32], train_ds.S_onehot[:32], train_ds.y[:32], cfg
        )
        assert total == pytest.approx(fair_loss + cfg.lam * gap, abs=1e-12)

    def test_empty_batch_rejected(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        model = small_model(train_ds, ae, cfg)
        with pytest.raises(ValueError):
            objective(model, train_ds.X[:0], train_ds.S_onehot[:0], train_ds.y[:0], cfg)


class TestTrain:
    def test_zero_epochs_returns_initialization(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(epochs=0, batch_size=64, z_dim=4,
                          encoder_hidden=16, predictor_hidden=8)
        trained = train(train_ds, ae, cfg)
        table = build_embedding_table(ae, train_ds.S_onehot, train_ds.sensitive_group_sizes)
        fresh = init_three_player(train_ds.X.shape[1], table, cfg)
        for got, want in zip(
            param_arrays(trained.model.encoder), param_arrays(fresh.encoder)
        ):
            assert np.array_equal(got, want)
        assert trained.train_history == []

    def test_deterministic_runs(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        a = train(train_ds, ae, cfg)
        b = train(train_ds, ae, cfg)
        for net in ("encoder", "fair_predictor", "sensitive_predictor"):
            for x, y in zip(
                param_arrays(getattr(a.model, net)), param_arrays(getattr(b.model, net))
            ):
                assert np.array_equal(x, y)

    def test_history_length_matches_epochs(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        trained = train(train_ds, ae, cfg)
        assert len(trained.train_history) == cfg.epochs

    def test_too_few_rows_rejected(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**FAST)
        with pytest.raises(ValueError):
            train(train_ds.take(range(10)), ae, cfg)

    def test_lambda_zero_matches_plain_supervised(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(lam=0.0, epochs=3, batch_size=64, z_dim=4,
                          encoder_hidden=16, predictor_hidden=8, seed=11)
        trained = train(train_ds, ae, cfg)
        ref_encoder, ref_fair = train_supervised(train_ds, cfg)
        for got, want in zip(
            param_arrays(trained.model.encoder), param_arrays(ref_encoder)
        ):
            assert np.max(np.abs(got - want)) <= 1e-12
        for got, want in zip(
            param_arrays(trained.model.fair_predictor), param_arrays(ref_fair)
        ):
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_autoencoder_frozen_during_training(self, law_parts):
        train_ds, _, ae = law_parts
        before = [a.copy() for a in param_arrays(ae.core.encoder)]
        train(train_ds, ae, TrainConfig(**FAST))
        for b, a in zip(before, param_arrays(ae.core.encoder)):
            assert np.array_equal(b, a)

    def test_divergence_guard(self, law_parts):
        train_ds, _, ae = law_parts
        broken = train_ds.take(range(train_ds.n_rows))
        broken.y = broken.y + 1e12  # unreachable targets blow up the loss
        cfg = TrainConfig(loss_kind="mse", **FAST)
        with pytest.raises(TrainingDiverged) as info:
            train(broken, ae, cfg)
        assert info.value.epoch == 0
        assert info.value.phase

    def test_fair_loss_decreases_on_most_seeds(self, law_parts):
        train_ds, _, ae = law_parts
        wins = 0
        runs = 100
        for seed in range(runs):
            cfg = TrainConfig(epochs=12, batch_size=64, z_dim=4, encoder_hidden=16,
                              predictor_hidden=8, seed=seed)
            hist = train(train_ds, ae, cfg).train_history
            if hist[-1].fair_loss < hist[0].fair_loss:
                wins += 1
        assert wins >= 95

    def test_ascend_gap_mode_runs(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(adversary_mode="ascend_gap", **FAST)
        trained = train(train_ds, ae, cfg)
        assert len(trained.train_history) == cfg.epochs


class TestPlayerIsolation:
    def _record_updates(self, law_parts, monkeypatch, adversary_mode="own_loss", steps=1):
        """Run one epoch of train with adam_step wrapped; return, for each
        update in order, the player it was given and the players it changed."""
        train_ds, _, ae = law_parts
        cfg = TrainConfig(**dict(FAST, epochs=1), adversary_mode=adversary_mode,
                          steps_per_player=steps)
        players = {}
        updates = []
        real_init = trainer.init_three_player
        real_step = trainer.adam_step

        def capture_players(*args):
            model = real_init(*args)
            for name in ("fair_predictor", "encoder", "sensitive_predictor"):
                players[name] = getattr(model, name)
            return model

        def recording_step(net, grads, state, direction="descend"):
            before = {name: [a.copy() for a in param_arrays(p)] for name, p in players.items()}
            real_step(net, grads, state, direction)
            given = next(name for name, p in players.items() if p is net)
            changed = {
                name for name, params in before.items()
                if not all(np.array_equal(b, a) for b, a in zip(params, param_arrays(players[name])))
            }
            updates.append((given, changed))

        monkeypatch.setattr(trainer, "init_three_player", capture_players)
        monkeypatch.setattr(trainer, "adam_step", recording_step)
        train(train_ds, ae, cfg)
        return cfg, updates

    def _assert_touches_only(self, updates, player):
        mine = [changed for given, changed in updates if given == player]
        assert mine, f"train never updated {player}"
        for changed in mine:
            assert changed == {player}, f"{player} update changed {sorted(changed)}"

    def test_fair_phase_touches_only_fair_predictor(self, law_parts, monkeypatch):
        _, updates = self._record_updates(law_parts, monkeypatch)
        self._assert_touches_only(updates, "fair_predictor")

    def test_encoder_phase_touches_only_encoder(self, law_parts, monkeypatch):
        _, updates = self._record_updates(law_parts, monkeypatch)
        self._assert_touches_only(updates, "encoder")

    def test_adversary_phase_touches_only_adversary(self, law_parts, monkeypatch):
        _, updates = self._record_updates(law_parts, monkeypatch)
        self._assert_touches_only(updates, "sensitive_predictor")

    @pytest.mark.parametrize("adversary_mode, steps", [("own_loss", 1), ("ascend_gap", 2)])
    def test_each_update_moves_only_its_player(self, law_parts, monkeypatch, adversary_mode, steps):
        """Every adam_step of train changes only the network it is given, in
        fair -> encoder -> adversary order, steps_per_player times each."""
        cfg, updates = self._record_updates(law_parts, monkeypatch, adversary_mode, steps)
        train_ds = law_parts[0]
        for given, changed in updates:
            assert changed == {given}, f"{given} update changed {sorted(changed)}"
        batches = -(-train_ds.n_rows // cfg.batch_size)
        one_batch = ("fair_predictor", "encoder", "sensitive_predictor")
        order = [given for given, _ in updates]
        assert order == [name for name in one_batch for _ in range(steps)] * batches


class TestPassCounts:
    def test_default_minibatch_runs_six_passes(self, law_parts, monkeypatch):
        """Each pass is recorded once and again only after a player it
        depends on moved: 3 + fair + encoder and adversary = 6 passes.
        Counting layer activations also catches a pass replayed in backward."""
        from minifair import neural

        train_ds, _, ae = law_parts
        cfg = TrainConfig(**dict(FAST, epochs=1, batch_size=train_ds.n_rows))
        table = build_embedding_table(ae, train_ds.S_onehot, train_ds.sensitive_group_sizes)
        nets = []
        activations = []
        real_forward = trainer.forward
        real_activate = neural._activate

        def counting_forward(net, *args, **kwargs):
            nets.append(net)
            return real_forward(net, *args, **kwargs)

        def counting_activate(z, kind):
            activations.append(kind)
            return real_activate(z, kind)

        monkeypatch.setattr(trainer, "build_embedding_table", lambda *args: table)
        monkeypatch.setattr(trainer, "forward", counting_forward)
        monkeypatch.setattr(neural, "_activate", counting_activate)
        model = train(train_ds, ae, cfg).model
        assert len(nets) == 6
        assert sum(net is model.encoder for net in nets) == 2
        assert len(activations) == 6 * 2  # every player network has two layers


class TestEncoderGradientFlow:
    def _encoder_grads(self, model, cfg, xb, yb, se):
        """Phase-2 encoder gradients without applying an update."""
        from minifair.neural import backward, loss_grad
        from minifair.trainer import _gap_grads

        z = forward(model.encoder, xb)
        s1 = forward(model.fair_predictor, z)[:, 0]
        g1 = loss_grad(cfg.loss_kind, s1, yb)
        if cfg.lam != 0.0:
            zs = np.hstack([z, se])
            s2 = forward(model.sensitive_predictor, zs)[:, 0]
            gg1, gg2 = _gap_grads(s1, s2, cfg, len(xb))
            g1 = g1 + gg1
            fair_pass = forward(model.fair_predictor, z, record=True)
            aware_pass = forward(model.sensitive_predictor, zs, record=True)
            d_z = backward(model.fair_predictor, fair_pass, g1.reshape(-1, 1)).inputs
            d_z = d_z + backward(model.sensitive_predictor, aware_pass, gg2.reshape(-1, 1)).inputs[
                :, : model.z_dim
            ]
        else:
            fair_pass = forward(model.fair_predictor, z, record=True)
            d_z = backward(model.fair_predictor, fair_pass, g1.reshape(-1, 1)).inputs
        return backward(model.encoder, forward(model.encoder, xb, record=True), d_z)

    def test_lambda_changes_encoder_gradient(self, law_parts):
        train_ds, _, ae = law_parts
        cfg0 = TrainConfig(lam=0.0, **FAST)
        cfg1 = TrainConfig(lam=1.0, **FAST)
        model = small_model(train_ds, ae, cfg1)
        se = model.embedding.lookup_rows(train_ds.S_onehot[:16])
        xb, yb = train_ds.X[:16], train_ds.y[:16]
        g0 = self._encoder_grads(model, cfg0, xb, yb, se)
        g1 = self._encoder_grads(model, cfg1, xb, yb, se)
        diffs = [
            np.max(np.abs(a[0] - b[0])) for a, b in zip(g0.layers, g1.layers)
        ]
        assert max(diffs) > 0.0

    def test_encoder_gradient_matches_finite_differences(self, law_parts):
        train_ds, _, ae = law_parts
        cfg = TrainConfig(lam=2.0, epochs=1, batch_size=8, z_dim=2,
                          encoder_hidden=3, predictor_hidden=3)
        model = small_model(train_ds, ae, cfg)
        xb, yb = train_ds.X[:8], train_ds.y[:8]
        sb = train_ds.S_onehot[:8]
        se = model.embedding.lookup_rows(sb)
        analytic = self._encoder_grads(model, cfg, xb, yb, se)
        step = 1e-6
        for layer_i, layer in enumerate(model.encoder.layers):
            for arr, got in (
                (layer.weights, analytic.layers[layer_i][0]),
                (layer.bias, analytic.layers[layer_i][1]),
            ):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    hi = objective(model, xb, sb, yb, cfg)[0]
                    arr[idx] = orig - step
                    lo = objective(model, xb, sb, yb, cfg)[0]
                    arr[idx] = orig
                    num = (hi - lo) / (2 * step)
                    assert got[idx] == pytest.approx(num, rel=1e-4, abs=1e-8)
                    it.iternext()
