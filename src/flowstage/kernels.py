"""The tanh-MLP arithmetic: one batched forward and backward pass.

Both work on rows: ``inputs`` is ``(B, in)`` and every activation is
``(B, size)``.  Hidden layers apply tanh, the final layer is identity;
``weights[l]`` has shape ``(out_l, in_l)``.  Shape and finiteness checks
live in the ``numerics.mlp_*`` functions, which call these.

Neither function writes an array the caller passes in other than the
gradient buffers of :func:`backward`.  :func:`forward` returns ``inputs``
itself as the first activation, not a copy, so a caller that reuses its
input buffer must copy that entry to keep it; every later activation is
a fresh array the caller owns.
"""

from __future__ import annotations

import numpy as np


def forward(weights: list, biases: list, inputs: np.ndarray) -> list:
    """Post-activation values of every layer, ``inputs`` first.

    Each layer's product is a new array (``np.dot`` makes the same BLAS
    call as ``@``), and the bias and tanh are applied to it in place.

    The weights go in as ``w.T`` views, never as pre-transposed copies:
    BLAS picks its kernel by the operands' memory order, and another
    kernel sums in another order.  With numpy 2.4 and OpenBLAS (2
    threads), a contiguous ``w.T`` copy changed 858 of the 1,024 entries
    of a 16-row product with a 64 x 64 weight and 848 of 1,024 of a
    64-row product with a 16 x 64 weight (by up to 1.1e-15), while ``@``
    and ``np.dot`` on the view agreed bit for bit.  So every sampled
    state and checkpoint depends on this choice.
    """
    acts = [inputs]
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = np.dot(acts[-1], w.T)
        z += b
        if layer < last:
            np.tanh(z, out=z)
        acts.append(z)
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
