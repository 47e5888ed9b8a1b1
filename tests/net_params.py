"""Parameter snapshots of an MLP for tests that compare or watch networks."""


def param_arrays(net) -> list:
    """Flat list of references to all parameter arrays (weights, biases)."""
    out = []
    for layer in net.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out
