"""Shared test utilities: the reference random streams, naive
re-implementations used as oracles (the MLP forward pass, and the
row-major transition gather, evaluation and backprop that
``eval_step``/``backprop_step`` must match), the toy task's closed-form
optimal velocity and marginal, a rollout's kept activations by step, a
policy copy, a policy built to overflow, a checkpoint whose header names
another shape, a training generator run to its end, and a generic
central finite-difference gradient."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from flowstage.flow_policy import _log_density_rows, _velocity_grad
from flowstage.numerics import CHECKPOINT_MAGIC, mlp_forward_batch


def philox(seed, *spawn_key):
    """numpy's generator on the Philox stream of ``SeedSequence(seed,
    spawn_key=spawn_key)``: the stream ``RandomSource(seed).at_stream(
    *spawn_key)`` must start, and the tests' source of random inputs."""
    seq = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(seq))


def copy_policy(policy):
    """The same policy over a copy of its parameter vector."""
    return replace(policy, vector=policy.vector.copy())


def naive_mlp_eval(weights, biases, x):
    """Layer-by-layer scalar-loop evaluation of the tanh/identity MLP.

    Deliberately avoids numpy linear algebra so it is an independent
    re-implementation of the forward pass.
    """
    a = [float(v) for v in x]
    for layer in range(len(weights)):
        w, b = weights[layer], biases[layer]
        out = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            out.append(math.tanh(acc) if layer < len(weights) - 1 else acc)
        a = out
    return np.array(a)


def toy_class_means(dataset):
    """Each class's noiseless sequence m_c of a ``ToyDataset``, flattened
    like a policy state: ``(num_classes, frames * 2)``."""
    frames, classes = dataset.dims.frames, dataset.dims.num_classes
    angles = ((2.0 * math.pi / classes) * np.arange(classes)[:, None]
              - dataset.omega * np.arange(frames - 1, -1, -1))
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1).reshape(classes, -1)


def toy_marginal_std(dataset, t):
    """s_t = sqrt((1 - t)^2 sigma^2 + t^2): the std of each coordinate of
    x_t - (1 - t) m_c on the path x_t = (1 - t) x_0 + t eps, when class c
    of ``dataset`` is N(m_c, sigma^2 I) with sigma its jitter."""
    return math.sqrt((1.0 - t) ** 2 * dataset.jitter ** 2 + t ** 2)


def optimal_velocity(dataset, x, t, conds):
    """v*(x, t, c) = E[eps - x_0 | x_t = x, c], the velocity that
    minimises the flow-matching loss on ``dataset``, one row of ``x`` per
    class in ``conds``: -m_c + (t - (1 - t) sigma^2) / s_t^2 (x - (1 - t) m_c)."""
    means = toy_class_means(dataset)[conds]
    gain = (t - (1.0 - t) * dataset.jitter ** 2) / toy_marginal_std(dataset, t) ** 2
    return -means + gain * (x - (1.0 - t) * means)


def kept_by_step(rollout):
    """A rollout's kept activations by step: each kept step, in increasing
    order, to its layer activations, the net-input rows first."""
    return {int(k): [rollout.net_inputs[k], *(block[u] for block in rollout.kept_layers)]
            for u, k in enumerate(rollout.kept_steps)}


def row_major_transitions(rollout, steps):
    """The transitions at ``steps`` of every trajectory, one per row,
    step-major (row ``u * G + i`` is trajectory i's step ``steps[u]``),
    each with its own flow time, condition, noise std and mean
    coefficients, the states gathered from the (G, K + 1, n)
    ``rollout.states`` and the constants from ``rollout.grid``: the
    reference for what ``eval_step`` and ``backprop_step`` read from a
    rollout."""
    steps = np.asarray(steps, dtype=np.int64)
    G, n, grid = len(rollout), rollout.states.shape[2], rollout.grid
    by_step = rollout.states.transpose(1, 0, 2)
    return SimpleNamespace(
        x=by_step[steps].reshape(-1, n),
        x_next=by_step[steps + 1].reshape(-1, n),
        t=np.repeat(grid.times[steps], G),
        cond=np.tile(rollout.conditions, len(steps)),
        std=np.repeat(grid.stds[steps], G),
        a_x=np.repeat(grid.a_x[steps], G),
        a_v=np.repeat(grid.a_v[steps], G),
    )


def row_major_eval(policy, rows):
    """Reference ``eval_step`` over :func:`row_major_transitions` rows:
    net inputs built from the rows, one forward pass, the means and
    log-densities.  Returns ``(log_probs, means, acts)``."""
    inputs = np.concatenate([rows.x, rows.t[:, None], policy.cond_emb[rows.cond]], axis=1)
    _, acts = mlp_forward_batch(policy.net, inputs)
    means = rows.a_x[:, None] * rows.x + rows.a_v[:, None] * acts[-1]
    return _log_density_rows(rows.x_next, means, rows.std), means, acts


def row_major_backprop(policy, rows, means, acts, upstream):
    """Reference ``backprop_step`` over :func:`row_major_transitions`
    rows: the gradient of ``sum_r upstream[r] * log_prob[r]``."""
    dmean = (rows.x_next - means) / (rows.std * rows.std)[:, None]
    upstream_v = (upstream * rows.a_v)[:, None] * dmean
    return _velocity_grad(policy, acts, upstream_v, rows.cond)


def late_overflow(policy):
    """A copy of a flow policy with exactly one hidden layer, of at least
    two units, whose velocity overflows to inf once the flow time falls
    below about 0.41: two hidden units read tanh(1 - t), every other
    weight is 0, and the output adds each of them times 1.7e308.  On the
    K = 4, t_min = 0.04 grid that is step 3 (t = 0.28), with every earlier
    velocity finite.  A second hidden layer would read only zeros and pass
    on tanh(0) = 0, so such a policy is refused."""
    if len(policy.net.weights) != 2:
        raise ValueError(f"late_overflow needs one hidden layer, got "
                         f"{len(policy.net.weights) - 1}")
    p = copy_policy(policy)
    p.vector[:] = 0.0
    n = p.dims.state_size
    p.net.weights[0][:2, n] = -1.0
    p.net.biases[0][:2] = 1.0
    p.net.weights[-1][:, :2] = 1.7e308
    return p


def edit_header(path, edit):
    """Rewrite the checkpoint at ``path`` after ``edit`` has changed its
    header dict in place; the payload is left as it was."""
    header, payload = path.read_bytes()[len(CHECKPOINT_MAGIC):].split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    path.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + b"\n" + payload)


def reshape_in_header(path, name, shape):
    """Rewrite the checkpoint at ``path`` so that its header gives array
    ``name`` the shape ``shape``."""
    def reshape(header):
        for entry in header["arrays"]:
            if entry["name"] == name:
                entry["shape"] = shape
    edit_header(path, reshape)


def drain(steps, policy):
    """Run a training generator (``train``, ``pretrain_flow_matching``) to
    its end.  Returns the last policy it yielded (``policy`` when it
    yielded none) and its records in step order."""
    records = []
    for _, policy, record in steps:
        records.append(record)
    return policy, records


def finite_difference(f, vector, h=1e-5):
    """Central-difference gradient of scalar f(vector) w.r.t. every entry of
    a flat vector, which is perturbed in place one entry at a time."""
    grad = np.zeros_like(vector)
    for pos in range(vector.size):
        orig = vector[pos]
        vector[pos] = orig + h
        hi = f(vector)
        vector[pos] = orig - h
        lo = f(vector)
        vector[pos] = orig
        grad[pos] = (hi - lo) / (2.0 * h)
    return grad


def rel_err_ok(analytic, numeric, rtol, atol):
    """Per-entry pass mask for gradient comparisons with an absolute floor."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    return np.abs(analytic - numeric) <= np.maximum(atol, rtol * denom)
