"""Minimal dense feed-forward engine: forward pass, exact reverse-mode
gradients, losses, and Adam.

Everything is float64. Networks are plain dataclasses of numpy arrays with no
hidden state, so copies are cheap and independent seeded runs are trivially
parallel. One trainer mutates one network at a time; nothing here locks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "leaky_relu")
LOSS_KINDS = ("smooth_l1", "binary_cross_entropy", "mse")

# Conventional slope for hidden-layer activations. Gap penalties that need a
# different slope pass it explicitly to leaky_relu.
LEAKY_SLOPE = 0.01


class ShapeError(ValueError):
    """An input's dimensions do not match the network."""


def leaky_relu(t, slope: float = LEAKY_SLOPE):
    """Return t for t >= 0 and slope*t otherwise; strictly increasing for slope > 0.

    Accepts scalars or arrays; scalars come back as plain floats.
    """
    arr = np.asarray(t, dtype=float)
    out = np.where(arr >= 0.0, arr, slope * arr)
    if arr.ndim == 0:
        return float(out)
    return out


def leaky_relu_grad(t, slope: float = LEAKY_SLOPE):
    """Derivative of leaky_relu (1 on the right branch, including t = 0)."""
    arr = np.asarray(t, dtype=float)
    return np.where(arr >= 0.0, 1.0, slope)


@dataclass
class DenseLayer:
    """One fully-connected layer: out = activation(x @ weights + bias)."""

    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match out_dim {self.weights.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy(), self.activation)


@dataclass
class MLP:
    """A chain of DenseLayers; adjacent dimensions must agree."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ValueError("MLP needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ShapeError(
                    f"layer chain broken: out_dim {prev.out_dim} feeds in_dim {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "MLP":
        return MLP([layer.copy() for layer in self.layers])


@dataclass
class Gradients:
    """Gradients of a scalar loss, mirroring an MLP's parameters.

    layers holds one (d_weights, d_bias) pair per layer; inputs is the
    gradient with respect to the input batch, which lets callers chain
    through an upstream network.
    """

    layers: list
    inputs: np.ndarray


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return z
    return leaky_relu(z)


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "identity":
        return np.ones_like(z)
    return leaky_relu_grad(z)


@dataclass
class ForwardPass:
    """One recorded forward pass: each layer's input and pre-activation.

    backward reads these instead of replaying the pass, so a record is valid
    only until the network's parameters change. len() is the row count.
    """

    inputs: list
    pre_acts: list
    output: np.ndarray

    def __len__(self) -> int:
        return self.output.shape[0]


def forward(net: MLP, batch: np.ndarray, record: bool = False) -> np.ndarray | ForwardPass:
    """Activations of the final layer for a (n, in_dim) batch.

    With record=True returns the ForwardPass that backward takes instead.
    """
    a = np.asarray(batch, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"batch must be 2-D, got shape {a.shape}")
    if a.shape[1] != net.in_dim:
        raise ShapeError(f"batch has {a.shape[1]} columns, network expects {net.in_dim}")
    inputs = []
    pre_acts = []
    for layer in net.layers:
        inputs.append(a)
        z = a @ layer.weights + layer.bias
        pre_acts.append(z)
        a = _activate(z, layer.activation)
    return ForwardPass(inputs, pre_acts, a) if record else a


def backward(net: MLP, recorded: ForwardPass, loss_grad_at_output: np.ndarray) -> Gradients:
    """Exact reverse-mode gradients of a scalar loss.

    recorded is forward(net, batch, record=True) under the current parameters;
    loss_grad_at_output is d(loss)/d(final activations), shape (n, out_dim).
    Returns gradients for every weight and bias plus the input batch.
    """
    g = np.asarray(loss_grad_at_output, dtype=float)
    if g.shape != (len(recorded), net.out_dim):
        raise ShapeError(
            f"output gradient shape {g.shape} does not match ({len(recorded)}, {net.out_dim})"
        )

    layer_grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        g = g * _activate_grad(recorded.pre_acts[i], layer.activation)
        d_w = recorded.inputs[i].T @ g
        d_b = g.sum(axis=0)
        layer_grads[i] = (d_w, d_b)
        g = g @ layer.weights.T
    return Gradients(layer_grads, g)


def loss(kind: str, prediction, target) -> float:
    """Mean per-sample loss.

    smooth_l1 uses 0.5*d^2 below |d| = 1 and |d| - 0.5 above; the kink is C1.
    binary_cross_entropy takes raw scores (logits) and applies the logistic
    sigmoid internally via the overflow-safe form max(z,0) - z*y + ln(1+e^-|z|).
    """
    p, t = _check_loss_args(kind, prediction, target)
    if kind == "smooth_l1":
        d = p - t
        ad = np.abs(d)
        per = np.where(ad < 1.0, 0.5 * d * d, ad - 0.5)
    elif kind == "mse":
        d = p - t
        per = d * d
    else:  # binary_cross_entropy
        per = np.maximum(p, 0.0) - p * t + np.log1p(np.exp(-np.abs(p)))
    return float(per.mean())


def loss_grad(kind: str, prediction, target) -> np.ndarray:
    """Gradient of the mean loss with respect to each prediction."""
    p, t = _check_loss_args(kind, prediction, target)
    n = p.size
    if kind == "smooth_l1":
        d = p - t
        return np.where(np.abs(d) < 1.0, d, np.sign(d)) / n
    if kind == "mse":
        return 2.0 * (p - t) / n
    return (sigmoid(p) - t) / n


def sigmoid(z):
    """Overflow-safe logistic function."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_loss_args(kind, prediction, target):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    p = np.asarray(prediction, dtype=float).ravel()
    t = np.asarray(target, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty prediction vector")
    if p.size != t.size:
        raise ValueError(f"prediction length {p.size} != target length {t.size}")
    if kind == "binary_cross_entropy" and not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("binary_cross_entropy targets must be 0 or 1")
    return p, t


@dataclass
class AdamState:
    """Per-parameter Adam moments mirroring an MLP's layers."""

    m: list
    v: list
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(net: MLP, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    m = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    v = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    return AdamState(m, v, 0, lr, beta1, beta2, eps)


def adam_step(net: MLP, grads: Gradients, state: AdamState,
              direction: str = "descend") -> None:
    """Standard bias-corrected Adam update, in place.

    direction "ascend" negates the gradient before the update.
    """
    if direction not in ("descend", "ascend"):
        raise ValueError(f"unknown direction {direction!r}")
    if len(grads.layers) != len(net.layers):
        raise ShapeError("gradient layer count does not match network")
    sign = -1.0 if direction == "descend" else 1.0
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for i, layer in enumerate(net.layers):
        for j, (param, grad) in enumerate(
            ((layer.weights, grads.layers[i][0]), (layer.bias, grads.layers[i][1]))
        ):
            if grad.shape != param.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} does not match parameter {param.shape}"
                )
            m = state.m[i][j]
            v = state.v[i][j]
            m *= state.beta1
            m += (1.0 - state.beta1) * grad
            v *= state.beta2
            v += (1.0 - state.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            param += sign * state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def init_mlp(dims, activations, seed: int) -> MLP:
    """Seeded network with uniform weights scaled by 1/sqrt(in_dim), zero biases.

    Identical seeds give bitwise-identical parameters.
    """
    dims = list(dims)
    if len(dims) < 2:
        raise ValueError("dims must list at least an input and an output size")
    activations = list(activations)
    if len(activations) != len(dims) - 1:
        raise ValueError(f"need {len(dims) - 1} activations, got {len(activations)}")
    rng = np.random.default_rng(seed)
    layers = []
    for (d_in, d_out), act in zip(zip(dims, dims[1:]), activations):
        w = rng.uniform(-1.0, 1.0, size=(d_in, d_out)) / np.sqrt(d_in)
        layers.append(DenseLayer(w, np.zeros(d_out), act))
    return MLP(layers)


def param_arrays(net: MLP) -> list:
    """Flat list of references to all parameter arrays (weights, biases)."""
    out = []
    for layer in net.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out
