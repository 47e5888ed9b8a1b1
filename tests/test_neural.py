import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minifair.neural import (
    MLP,
    AdamState,
    DenseLayer,
    ShapeError,
    adam_step,
    backward,
    forward,
    init_adam,
    init_mlp,
    leaky_relu,
    loss,
    loss_grad,
    sigmoid,
)
from net_params import param_arrays


def finite_diff_grads(net, batch, target, kind, step=1e-5):
    """Central-difference gradients of the mean loss for every parameter."""
    grads = []
    for arr in param_arrays(net):
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss(kind, forward(net, batch)[:, 0], target)
            arr[idx] = orig - step
            lo = loss(kind, forward(net, batch)[:, 0], target)
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
        grads.append(g)
    return grads


def backprop_grads_flat(net, batch, target, kind):
    out = forward(net, batch)
    g_out = loss_grad(kind, out[:, 0], target).reshape(-1, 1)
    grads = backward(net, forward(net, batch, record=True), g_out)
    flat = []
    for d_w, d_b in grads.layers:
        flat.append(d_w)
        flat.append(d_b)
    return flat


class TestForward:
    def test_identity_layer_passes_input_through(self):
        net = MLP([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        out = forward(net, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, np.array([[1.0, 2.0]]))

    def test_leaky_relu_layer(self):
        net = MLP([DenseLayer(np.array([[1.0], [1.0]]), np.zeros(1), "leaky_relu")])
        out = forward(net, np.array([[-1.0, 0.0]]))
        assert out[0, 0] == pytest.approx(-0.01)

    def test_zero_weights_return_bias(self):
        net = MLP([DenseLayer(np.zeros((3, 1)), np.array([3.0]), "identity")])
        out = forward(net, np.array([[5.0, -2.0, 7.0]]))
        assert np.array_equal(out, np.array([[3.0]]))

    def test_dim_mismatch_raises(self):
        net = MLP([DenseLayer(np.eye(2), np.zeros(2), "identity")])
        with pytest.raises(ShapeError):
            forward(net, np.ones((1, 3)))

    def test_deterministic(self):
        net = init_mlp([4, 8, 1], ["leaky_relu", "identity"], seed=3)
        batch = np.random.default_rng(0).normal(size=(5, 4))
        a = forward(net, batch)
        b = forward(net, batch)
        assert np.array_equal(a, b)


class TestLeakyRelu:
    def test_origin(self):
        assert leaky_relu(0.0, 0.01) == 0.0

    def test_positive_branch(self):
        assert leaky_relu(2.0, 0.01) == 2.0

    def test_negative_branch(self):
        assert leaky_relu(-3.0, 0.01) == pytest.approx(-0.03)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(0.001, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing(self, t1, t2, slope):
        if t1 == t2:
            return
        lo, hi = min(t1, t2), max(t1, t2)
        assert leaky_relu(lo, slope) < leaky_relu(hi, slope)


class TestLoss:
    def test_smooth_l1_zero_residual(self):
        assert loss("smooth_l1", [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_smooth_l1_linear_region(self):
        assert loss("smooth_l1", [2.0], [0.0]) == pytest.approx(1.5)

    def test_smooth_l1_quadratic_region(self):
        assert loss("smooth_l1", [0.5], [0.0]) == pytest.approx(0.125)

    def test_bce_at_zero_logit(self):
        assert loss("binary_cross_entropy", [0.0], [1.0]) == pytest.approx(math.log(2))

    def test_bce_rejects_nonbinary_targets(self):
        with pytest.raises(ValueError):
            loss("binary_cross_entropy", [0.0], [0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            loss("mse", [], [])

    def test_smooth_l1_is_c1_at_kink(self):
        # value and one-sided derivatives agree at |d| = 1
        eps = 1e-7
        left = loss("smooth_l1", [1.0 - eps], [0.0])
        right = loss("smooth_l1", [1.0 + eps], [0.0])
        assert abs(left - 0.5) < 1e-6 and abs(right - 0.5) < 1e-6
        d_left = (loss("smooth_l1", [1.0], [0.0]) - loss("smooth_l1", [1.0 - eps], [0.0])) / eps
        d_right = (loss("smooth_l1", [1.0 + eps], [0.0]) - loss("smooth_l1", [1.0], [0.0])) / eps
        assert abs(d_left - d_right) < 1e-6

    def test_bce_nonnegative_and_vanishing(self):
        for z in [-5.0, -1.0, 0.0, 1.0, 5.0]:
            assert loss("binary_cross_entropy", [z], [1.0]) >= 0.0
        assert loss("binary_cross_entropy", [30.0], [1.0]) < 1e-12

    def test_bce_stable_for_huge_logits(self):
        val = loss("binary_cross_entropy", [800.0, -800.0], [0.0, 1.0])
        assert np.isfinite(val) and val == pytest.approx(800.0)


class TestBackward:
    def test_zero_seed_gives_zero_grads(self):
        net = init_mlp([3, 4, 1], ["leaky_relu", "identity"], seed=0)
        batch = np.random.default_rng(1).normal(size=(6, 3))
        grads = backward(net, forward(net, batch, record=True), np.zeros((6, 1)))
        for d_w, d_b in grads.layers:
            assert not d_w.any() and not d_b.any()
        assert not grads.inputs.any()

    @pytest.mark.parametrize("kind", ["smooth_l1", "mse", "binary_cross_entropy"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        net = init_mlp([4, 6, 1], ["leaky_relu", "identity"], seed=11)
        batch = rng.normal(size=(8, 4))
        if kind == "binary_cross_entropy":
            target = rng.integers(0, 2, size=8).astype(float)
        else:
            target = rng.normal(size=8)
        analytic = backprop_grads_flat(net, batch, target, kind)
        numeric = finite_diff_grads(net, batch, target, kind)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-8)
            assert np.max(np.abs(a - n) / denom) <= 1e-4

    def test_linear_net_matches_closed_form(self):
        # single identity layer with MSE: gradient is 2 X^T (Xw - y) / n
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        w = rng.normal(size=(3, 1))
        y = rng.normal(size=10)
        net = MLP([DenseLayer(w.copy(), np.zeros(1), "identity")])
        analytic = backprop_grads_flat(net, x, y, "mse")[0]
        expected = 2.0 * x.T @ (x @ w - y.reshape(-1, 1)) / 10
        assert np.allclose(analytic, expected, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        net = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=2)
        batch = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        g_out = loss_grad("mse", forward(net, batch)[:, 0], y).reshape(-1, 1)
        d_in = backward(net, forward(net, batch, record=True), g_out).inputs
        step = 1e-6
        for i in range(4):
            for j in range(3):
                b = batch.copy()
                b[i, j] += step
                hi = loss("mse", forward(net, b)[:, 0], y)
                b[i, j] -= 2 * step
                lo = loss("mse", forward(net, b)[:, 0], y)
                num = (hi - lo) / (2 * step)
                assert d_in[i, j] == pytest.approx(num, rel=1e-4, abs=1e-8)


class TestAdam:
    def _one_param_net(self, w=0.0):
        return MLP([DenseLayer(np.array([[w]]), np.zeros(1), "identity")])

    def _grads_for(self, net, w_grad, b_grad=0.0):
        from minifair.neural import Gradients

        return Gradients([(np.array([[w_grad]]), np.array([b_grad]))], np.zeros((1, 1)))

    def test_zero_gradient_is_fixed_point(self):
        net = init_mlp([2, 3, 1], ["leaky_relu", "identity"], seed=4)
        before = [a.copy() for a in param_arrays(net)]
        state = init_adam(net)
        grads = backward(net, forward(net, np.zeros((1, 2)), record=True), np.zeros((1, 1)))
        adam_step(net, grads, state)
        assert state.step_count == 1
        for b, a in zip(before, param_arrays(net)):
            assert np.array_equal(b, a)

    def test_first_step_moves_by_lr(self):
        net = self._one_param_net(0.0)
        state = init_adam(net, lr=1e-3)
        adam_step(net, self._grads_for(net, 1.0), state)
        assert net.layers[0].weights[0, 0] == pytest.approx(-1e-3, rel=1e-6)

    def test_shape_mismatch_raises(self):
        net = self._one_param_net()
        state = init_adam(net)
        from minifair.neural import Gradients

        bad = Gradients([(np.zeros((2, 2)), np.zeros(1))], np.zeros((1, 1)))
        with pytest.raises(ShapeError):
            adam_step(net, bad, state)


class TestInitMlp:
    def test_same_seed_identical(self):
        a = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=42)
        b = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=42)
        for x, y in zip(param_arrays(a), param_arrays(b)):
            assert np.array_equal(x, y)

    def test_shapes(self):
        net = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=0)
        assert net.layers[0].weights.shape == (3, 5)
        assert net.layers[1].weights.shape == (5, 1)

    def test_different_seeds_differ(self):
        a = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=1)
        b = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=2)
        assert any(
            not np.array_equal(x, y) for x, y in zip(param_arrays(a), param_arrays(b))
        )

    def test_too_few_dims_rejected(self):
        with pytest.raises(ValueError):
            init_mlp([3], [], seed=0)

    def test_biases_zero_and_weights_scaled(self):
        net = init_mlp([16, 4], ["identity"], seed=9)
        assert not net.layers[0].bias.any()
        assert np.max(np.abs(net.layers[0].weights)) <= 1.0 / 4.0


def test_sigmoid_matches_naive_in_safe_range():
    z = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(z), 1.0 / (1.0 + np.exp(-z)), atol=1e-15)


class TestStackedNetworks:
    """Each slice of a stacked network computes bitwise what its plain
    network computes alone, for a shared batch and for one batch per slice."""

    def _plain_and_stacked(self, seeds):
        from minifair.neural import stack, take

        plains = [init_mlp([4, 6, 2], ["leaky_relu", "identity"], seed=s) for s in seeds]
        stacked = stack(plains[0], len(seeds))
        for i, plain in enumerate(plains):
            for dst, src in zip(param_arrays(take(stacked, i)), param_arrays(plain)):
                dst[...] = src
        return plains, stacked

    def test_stack_repeats_the_plain_network(self):
        from minifair.neural import stack, take

        net = init_mlp([3, 5, 1], ["leaky_relu", "identity"], seed=1)
        stacked = stack(net, 3)
        assert stacked.layers[0].weights.shape == (3, 3, 5)
        assert stacked.layers[0].bias.shape == (3, 5)
        assert (stacked.in_dim, stacked.out_dim) == (3, 1)
        for i in range(3):
            for got, want in zip(param_arrays(take(stacked, i)), param_arrays(net)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shared", [True, False])
    def test_forward_backward_adam_match_each_slice(self, shared):
        from minifair.neural import take, take_adam

        rng = np.random.default_rng(3)
        plains, stacked = self._plain_and_stacked([5, 6, 7])
        batches = rng.normal(size=(3, 9, 4))
        batch = batches[0] if shared else batches
        targets = rng.normal(size=(3, 9, 2))
        rec = forward(stacked, batch, record=True)
        grads = backward(stacked, rec, targets)
        state = init_adam(stacked)
        adam_step(stacked, grads, state)
        for i, plain in enumerate(plains):
            xb = batches[0] if shared else batches[i]
            rec_i = forward(plain, xb, record=True)
            assert rec.output[i].tobytes() == rec_i.output.tobytes()
            grads_i = backward(plain, rec_i, targets[i])
            assert grads.inputs[i].tobytes() == grads_i.inputs.tobytes()
            state_i = init_adam(plain)
            adam_step(plain, grads_i, state_i)
            for got, want in zip(param_arrays(take(stacked, i)), param_arrays(plain)):
                assert got.tobytes() == want.tobytes()
            kept = take_adam(state, np.array([i]))
            assert kept.step_count == state_i.step_count
            for (mw, mb), (pw, pb) in zip(kept.m, state_i.m):
                assert mw[0].tobytes() == pw.tobytes() and mb[0].tobytes() == pb.tobytes()

    def test_stacked_loss_is_each_rows_loss(self):
        rng = np.random.default_rng(4)
        preds = rng.normal(size=(3, 7))
        y = (rng.random(7) > 0.5).astype(float)
        for kind in ("smooth_l1", "mse", "binary_cross_entropy"):
            losses = loss(kind, preds, y)
            grads = loss_grad(kind, preds, y)
            assert losses.shape == (3,) and grads.shape == (3, 7)
            for i in range(3):
                assert losses[i] == loss(kind, preds[i], y)
                assert grads[i].tobytes() == loss_grad(kind, preds[i], y).tobytes()

    def test_stacked_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            DenseLayer(np.zeros((2, 3, 4)), np.zeros((3, 4)))
