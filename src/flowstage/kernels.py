"""The tanh-MLP arithmetic: one batched forward and backward pass.

Both work on rows: ``inputs`` is ``(B, in)`` and every activation is
``(B, size)``.  Hidden layers apply tanh, the final layer is identity;
``weights[l]`` has shape ``(out_l, in_l)``.  Shape and finiteness checks
live in the ``numerics.mlp_*`` functions, which call these.  The SDE
sampler (``flow_policy.sde_sample``) is the one caller that skips them:
it binds :func:`forward` once per call, looking it up on this module
then, so a wrapper installed here is the one it calls for every step.
Each step passes a net input with every shape fixed by the sampler's
workspace and the ``out`` buffers its rollout keeps, and finiteness is
checked once per rollout, after its last step.

Neither function writes an array the caller passes in other than the
gradient buffers of :func:`backward` and the ``out`` buffers of
:func:`forward`.  :func:`forward` returns ``inputs`` itself as the first
activation, not a copy, so a caller that reuses its input buffer must
copy that entry to keep it.  Every later activation is a fresh array the
caller owns, or the caller's own ``out`` buffer for that layer.
``numerics.mlp_backward_batch`` may pass views of a caller's gradient
slice as the gradient buffers: the policy gradient passes the net's
slice of one policy-sized vector, so the net gradient is written there
in place.
"""

from __future__ import annotations

import numpy as np


def forward(weights: list, biases: list, inputs: np.ndarray, out: list | None = None) -> list:
    """Post-activation values of every layer, ``inputs`` first.

    Each layer's product is a new array, or ``out[l]`` when the caller
    passes one C-contiguous float64 ``(B, size)`` buffer per layer
    (``np.dot`` makes the same BLAS call either way, and the same as
    ``@``).  The bias and tanh are applied to it in place.

    The weights go in as ``w.T`` views, never as pre-transposed copies:
    BLAS picks its kernel by the operands' memory order, and another
    kernel sums in another order.  With numpy 2.4 and OpenBLAS (2
    threads), a contiguous ``w.T`` copy changed 858 of the 1,024 entries
    of a 16-row product with a 64 x 64 weight and 848 of 1,024 of a
    64-row product with a 16 x 64 weight (by up to 1.1e-15), while ``@``
    and ``np.dot`` on the view agreed bit for bit.  So every sampled
    state and checkpoint depends on this choice.
    """
    if out is None:
        out = [None] * len(weights)
    acts = [inputs]
    z, last = inputs, weights[-1]  # the identity layer, told apart by object
    for w, b, o in zip(weights, biases, out):
        z = np.dot(z, w.T, out=o)
        z += b
        if w is not last:
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
