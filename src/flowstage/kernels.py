"""The tanh-MLP arithmetic: one batched forward and backward pass.

Both work on rows: ``inputs`` is ``(B, in)`` and every activation is
``(B, size)``.  Hidden layers apply tanh, the final layer is identity;
``weights[l]`` has shape ``(out_l, in_l)``.  Shape and finiteness checks
live in the ``numerics.mlp_*`` functions, which call these.
"""

from __future__ import annotations

import numpy as np


def forward(weights: list, biases: list, inputs: np.ndarray) -> list:
    """Post-activation values of every layer, ``inputs`` first."""
    acts = [inputs]
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        acts.append(np.tanh(z) if layer < last else z)
    return acts


def backward(weights: list, acts: list, upstream: np.ndarray,
             grad_w: list, grad_b: list) -> np.ndarray:
    """Backpropagate ``upstream`` (B, out) through the activations of
    :func:`forward` with the same weights.

    Writes the batch-summed weight and bias gradients into ``grad_w`` and
    ``grad_b`` (one array per layer, shaped like the weights and biases)
    and returns the input gradients, one row per batch row.  The tanh
    derivative is taken from the post-activation values.
    """
    delta = upstream
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, acts[layer], out=grad_w[layer])
        delta.sum(axis=0, out=grad_b[layer])
        back = delta @ weights[layer]
        delta = back * (1.0 - acts[layer] ** 2) if layer > 0 else back
    return delta
