"""Conditional flow-matching policy over short frame sequences.

A single MLP predicts a velocity field v(x, t, class); integrating it
backward from t = 1 (pure noise) towards t = 0 (data) generates samples.
The one sampler, :func:`sde_sample`, adds a score-corrected drift and
Brownian noise so that every transition has a tractable Gaussian
density, which is what the policy-gradient trainer differentiates.  At
eta = 0 both vanish and it is the deterministic Euler integration of
dx = v dt from t = 1 down to t_min.

Conventions, fixed here and relied on everywhere else:

* time runs 1 -> 0 during sampling, with uniform negative dt;
* the interpolation path is x_t = (1 - t) * data + t * noise, so the
  regression target for pretraining is (noise - data);
* the marginal score implied by that path is -(x + (1 - t) v) / t;
* the stochastic sampler uses noise scale sigma_t = eta * sqrt(t), which
  vanishes at the data end and makes the score-corrected drift exactly
  bounded: sigma_t^2/2 * score = -eta^2 (x + (1 - t) v) / 2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import kernels
from .errors import (
    DomainError,
    RolloutError,
    ShapeError,
    class_indices,
    require_int,
    require_number,
)
from .numerics import (
    MlpParams,
    RandomSource,
    adam_init,
    adam_step_arrays,
    init_mlp,
    join_params,
    mlp_backward_batch,
    mlp_forward,
    mlp_forward_batch,
    param_layout,
    read_checkpoint,
    split_params,
    write_checkpoint,
)

DEFAULT_T_MIN = 0.04
DEFAULT_HIDDEN = (64, 64)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyDims:
    """Shape of the generation problem: sequences of `frames` points of
    dimension `frame_dim`, conditioned on one of `num_classes` classes."""

    frames: int = 8
    frame_dim: int = 2
    num_classes: int = 8
    embed_dim: int = 8

    def __post_init__(self):
        for f in fields(self):
            require_int(f.name, getattr(self, f.name))

    @property
    def state_size(self) -> int:
        return self.frames * self.frame_dim

    @property
    def net_input_size(self) -> int:
        return self.state_size + 1 + self.embed_dim


@dataclass
class FlowPolicy:
    """Velocity net plus one learned embedding row per condition class.

    Every trainable number lives in ``vector``, used as given when it is
    a contiguous float64 array; ``net.weights``, ``net.biases`` and
    ``cond_emb`` are views into it.  ``layout`` names each array of
    ``vector`` with its shape: the net's :func:`param_layout`, then
    ``cond_emb``.
    """

    dims: PolicyDims
    layer_sizes: tuple
    vector: np.ndarray
    layout: list = field(init=False, repr=False)
    net: MlpParams = field(init=False, repr=False)
    cond_emb: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for i, size in enumerate(self.layer_sizes):
            require_int(f"layer_sizes[{i}]", size)
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        self.vector = np.ascontiguousarray(self.vector, dtype=np.float64)
        emb_shape = (self.dims.num_classes, self.dims.embed_dim)
        # a vector of the wrong size leaves the net part the wrong size,
        # which MlpParams rejects
        net_size = max(self.vector.size - math.prod(emb_shape), 0)
        self.net = MlpParams(self.layer_sizes, self.vector[:net_size])
        self.layout = self.net.layout + [("cond_emb", emb_shape)]
        self.cond_emb = self.vector[net_size:].reshape(emb_shape)
        if self.net.input_size != self.dims.net_input_size:
            raise ShapeError(
                f"net input {self.net.input_size} != state + time + embedding "
                f"({self.dims.net_input_size})"
            )
        if self.net.output_size != self.dims.state_size:
            raise ShapeError(
                f"net output {self.net.output_size} != state size {self.dims.state_size}"
            )


def _policy_layout(layer_sizes: tuple, dims: PolicyDims) -> list:
    return param_layout(layer_sizes, [("cond_emb", (dims.num_classes, dims.embed_dim))])


@dataclass(frozen=True)
class SdeGrid:
    """The one home of the transition constants: :func:`sde_sample` steps
    with its config's grid and every :class:`Rollout` carries it, so
    re-evaluating or differentiating a transition reads what drew it.
    ``times`` are the K + 1 flow times from 1 down to t_min, ``dt`` < 0
    the step size and ``eta`` the noise scale; per step k, the read-only
    (K,) arrays hold the noise std and the coefficients of
    mean = a_x * x + a_v * v."""

    times: np.ndarray
    dt: float
    eta: float
    stds: np.ndarray
    a_x: np.ndarray
    a_v: np.ndarray

    def __post_init__(self):
        for array in (self.times, self.stds, self.a_x, self.a_v):
            array.flags.writeable = False


@dataclass(frozen=True)
class SdeConfig:
    """Stochastic sampler settings."""

    num_steps: int = 16
    eta: float = 0.5
    t_min: float = DEFAULT_T_MIN

    def __post_init__(self):
        require_int("num_steps", self.num_steps)
        require_number("eta", self.eta)
        require_number("t_min", self.t_min)
        if self.num_steps < 1:
            raise DomainError("num_steps must be >= 1")
        if not 0.0 < self.t_min < 1.0:
            raise DomainError("t_min must lie in (0, 1)")
        if self.eta < 0.0:
            raise DomainError("eta must be >= 0")

    @cached_property
    def grid(self) -> SdeGrid:
        """The sampler's per-step constants, built on first use and kept
        with this config, so every group sampled under it shares them."""
        times = np.linspace(1.0, self.t_min, self.num_steps + 1)
        dt = (self.t_min - 1.0) / self.num_steps
        a_x, a_v = _step_coeffs(times[:-1], dt, self.eta)
        return SdeGrid(times, dt, self.eta, self.eta * np.sqrt(times[:-1] * -dt),
                       np.full_like(a_v, a_x), a_v)


@dataclass
class Rollout:
    """The one record of a sampled group, from sampling to gradient:
    trajectory i is row i of the group axis of each array.

    ``net_inputs`` is the sampler's step-major (K + 1, G, in) workspace:
    row k holds step k's net inputs (x_k, t_k, embedding), so its first n
    columns are the states, which ``states`` shows as a (G, K + 1, n)
    view.  ``step_means`` is (G, K, n) and :attr:`log_probs` (G, K):
    ``log_probs[i, k]`` is the Gaussian log-density of ``states[i, k + 1]``
    under mean ``step_means[i, k]`` and covariance ``grid.stds[k]**2 * I``;
    nothing may write ``net_inputs`` or ``step_means`` before it is first
    read.  ``grid``, the sampler config's :class:`SdeGrid`, holds the step
    constants the group was drawn with, the only ones its transitions are
    read with.  ``conditions`` holds one class per trajectory.

    ``kept_steps`` are the steps named at sampling time, sorted: the
    transitions a gradient is taken at.  The net's activations there are
    kept: the inputs are those steps' ``net_inputs`` rows, and
    ``kept_layers`` holds one (len(kept_steps), G, size) block per later
    layer, slot u belonging to ``kept_steps[u]``.  Whatever is read per
    kept transition is step-major: row ``u * G + i`` is trajectory i's
    step ``kept_steps[u]``.  From :func:`sde_sample`, ``step_means`` is a
    view of a step-major (K, G, n) array, and it, ``net_inputs`` and the
    kept blocks are views of one allocation, no two of them overlapping.
    """

    grid: SdeGrid
    net_inputs: np.ndarray
    step_means: np.ndarray
    conditions: np.ndarray
    kept_steps: np.ndarray = field(repr=False)
    kept_layers: list = field(repr=False)

    def __post_init__(self):
        self.kept_steps = np.asarray(self.kept_steps, dtype=np.int64)
        rows = [len(block) for block in self.kept_layers]
        if any(r != len(self.kept_steps) for r in rows):
            raise ShapeError(f"kept layer blocks of {rows} slots for "
                             f"{len(self.kept_steps)} kept steps")

    def __len__(self) -> int:
        return self.net_inputs.shape[1]

    @property
    def states(self) -> np.ndarray:
        """The visited states, (G, K + 1, n), a view of ``net_inputs``."""
        return self.net_inputs[:, :, :self.step_means.shape[-1]].transpose(1, 0, 2)

    @cached_property
    def log_probs(self) -> np.ndarray | None:
        """The (G, K) transition log-densities, None when eta = 0: formed on
        first read, with the same operations and bits as when the sampler
        formed them, and then kept (assignable and writable in place)."""
        if self.grid.eta == 0.0:
            return None
        return _log_density_rows(self.states[:, 1:], self.step_means, self.grid.stds)

    def final_states(self) -> np.ndarray:
        return self.states[:, -1]

    def kept_activations(self) -> list:
        """The net's layer activations at the kept steps, one (T' G, size)
        array per layer, inputs first.  Every layer after the input is its
        ``kept_layers`` block seen as (T' G, size), no copy; only the input
        rows are gathered from ``net_inputs``.
        """
        inputs = self.net_inputs[self.kept_steps]
        return [inputs.reshape(-1, inputs.shape[-1]),
                *(block.reshape(-1, block.shape[-1]) for block in self.kept_layers)]

    def recorded_eval(self) -> "TransitionEval":
        """What :func:`eval_step` gives under the policy that sampled this
        rollout, read from the rollout instead of recomputed: the recorded
        means and log-densities at the kept steps and their activations.
        The rollout must have densities (eta > 0).

        The sampler formed each mean and log-density with the operations
        :func:`eval_step` uses, so they equal what it computes from these
        activations, bit for bit.  A fresh forward pass over all the rows
        at once can differ from the sampler's per-step passes at rounding
        level (a wider BLAS product may sum in another order).
        """
        steps = self.kept_steps
        return TransitionEval(
            log_probs=self.log_probs[:, steps].T.reshape(-1),
            means=self.step_means.transpose(1, 0, 2)[steps].reshape(-1, self.step_means.shape[-1]),
            acts=self.kept_activations(),
        )


# ---------------------------------------------------------------------------
# Policy construction / checkpoints
# ---------------------------------------------------------------------------


def init_flow_policy(dims: PolicyDims, hidden: Sequence[int] = DEFAULT_HIDDEN,
                     rng: RandomSource | None = None) -> FlowPolicy:
    """A new policy: net weights from ``rng``'s child stream 0, embedding
    rows N(0, 1/embed_dim) from its child stream 1."""
    rng = rng if rng is not None else RandomSource(0)
    sizes = (dims.net_input_size, *hidden, dims.state_size)
    if min(*sizes, dims.num_classes * dims.embed_dim) < 1:
        raise DomainError(f"empty layer or embedding: layer sizes {sizes}, dims {dims}")
    net = init_mlp(sizes, rng.at_stream(0))
    emb = (rng.at_stream(1).standard_normal(dims.num_classes * dims.embed_dim)
           / math.sqrt(dims.embed_dim))
    return FlowPolicy(dims, sizes, np.concatenate([net.vector, emb]))


def save_policy(path, policy: FlowPolicy, extra_meta: dict | None = None) -> None:
    """Checkpoint with one array per entry of ``policy.layout``, by name."""
    meta = {
        "kind": "flow_policy",
        "layer_sizes": list(policy.layer_sizes),
        "activation": "tanh",
        "dims": asdict(policy.dims),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_checkpoint(path, meta, split_params(policy.vector, policy.layout))


def load_policy(path):
    """Returns ``(FlowPolicy, meta)``.  The header's ``dims`` must name
    every :class:`PolicyDims` field, and every size must be an integer."""
    meta, arrays = read_checkpoint(path)
    if not isinstance(meta, dict):
        raise DomainError(f"{path}: checkpoint meta is not a mapping")
    if meta.get("kind") != "flow_policy":
        raise DomainError(f"{path}: not a flow policy checkpoint")
    if meta.get("activation", "tanh") != "tanh":
        raise DomainError(f"{path}: unsupported activation {meta['activation']!r}")
    sizes = tuple(meta["layer_sizes"])
    names = sorted(f.name for f in fields(PolicyDims))
    if not isinstance(meta["dims"], dict) or sorted(meta["dims"]) != names:
        raise DomainError(f"{path}: checkpoint dims must name {names}, got {meta['dims']!r}")
    dims = PolicyDims(**meta["dims"])
    return FlowPolicy(dims, sizes, join_params(arrays, _policy_layout(sizes, dims))), meta


# ---------------------------------------------------------------------------
# Velocity and score
# ---------------------------------------------------------------------------


def velocity(policy: FlowPolicy, x: np.ndarray, t: float, cond: int) -> np.ndarray:
    """Velocity field at one state ``x``, flow time ``t`` in [0, 1] and
    condition ``cond``, an integer class of the policy (see
    :func:`errors.class_indices`): the one-state form of the forward pass
    :func:`sde_sample` makes for a whole group at each step."""
    cond = int(class_indices(cond, 1, policy.dims.num_classes)[0])
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"flow time {t} outside [0, 1]")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (policy.dims.state_size,):
        raise ShapeError(f"state shape {x.shape}, expected ({policy.dims.state_size},)")
    out, _ = mlp_forward(policy.net, np.concatenate([x, [float(t)], policy.cond_emb[cond]]))
    return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _step_coeffs(t: np.ndarray, dt: float, eta: float):
    """mean = a_x * x + a_v * v for the Euler-Maruyama steps from times
    ``t``: one ``a_x`` for all of them, and one ``a_v`` per time.

    Folding the score -(x + (1 - t) v)/t into the drift
    v - (sigma_t^2 / 2) * score with sigma_t = eta * sqrt(t) gives
    a_x = 1 + dt * eta^2 / 2 and a_v = dt * (1 + eta^2 (1 - t) / 2).
    """
    half = 0.5 * eta * eta
    return 1.0 + dt * half, dt * (1.0 + half * (1.0 - t))


def _log_density_rows(x: np.ndarray, mean: np.ndarray, std) -> np.ndarray:
    """Log-density of each row (last axis) of ``x`` under
    N(mean_row, std_row^2 I); ``std`` broadcasts against the leading axes
    (one per row, one per column of a (G, K, n) block, or one shared)."""
    resid = x - mean
    var2 = 2.0 * std * std
    return (-0.5 * x.shape[-1] * np.log(np.pi * var2)
            - np.einsum("...j,...j->...", resid, resid) / var2)


def sde_sample(policy: FlowPolicy, cond, config: SdeConfig, noise: np.ndarray,
               keep: Sequence[int] = ()) -> Rollout:
    """Stochastic rollout of a group, dx = (v - sigma_t^2/2 * score) dt + sigma_t dw.

    ``noise`` is the group's standard normal noise block, (G, K + 1, n):
    row i holds trajectory i's initial state and then its K step
    increments.  Drawing row i from its own stream, as
    ``RandomSource.gaussian_streams`` does, makes a trajectory's noise
    independent of the group size.  Its states are not, bit for bit: a
    G-row matrix product may sum in another order than a one-row one, so
    they move with G at rounding level (one 64-row forward differed from
    row-by-row forwards by up to 8.9e-16).  ``cond`` is one integer
    condition for the group or one per trajectory.  Each SDE step is one
    forward pass over the whole group, and each transition is Gaussian
    with mean a_x * x + a_v * v and std eta * sqrt(t |dt|), step k's
    constants read from ``config.grid``, their one home.  The
    log-densities are left to ``Rollout.log_probs``, so sampling for
    scoring alone never forms them.  The steps in ``keep``, sorted, are
    the rollout's ``kept_steps``, the transitions a gradient is taken at;
    the net's layer activations are kept there only.

    The group is sampled in one step-major workspace, (K + 1, G, in):
    row k is step k's net input (x_k, t_k, embedding), so its first n
    columns hold the states.  It and every other buffer of the rollout
    are views of one allocation.  ``work[k + 1, :, :n]`` starts as
    ``std_k * noise[:, k + 1]`` and step k adds its mean, the same IEEE
    sum as ``mean + std_k * noise``.  :func:`kernels.forward` writes a
    kept step's hidden and output activations to that step's slot of the
    per-layer (len(keep), G, size) blocks (``Rollout.kept_layers``), the
    other steps' to one shared scratch slot.  Finiteness is checked once,
    on the final states: a non-finite velocity or state carries into
    every later state, and only on failure is the first failing step
    looked for (see :func:`_raise_first_failure`).

    ``noise`` is only read.  The returned :class:`Rollout` shares nothing
    with the caller but its ``grid``, the read-only ``config.grid``, and
    holds the workspace itself as ``net_inputs``: a kept step's input
    activations are its workspace row.
    """
    net, n, K, grid = policy.net, policy.dims.state_size, config.num_steps, config.grid
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim != 3 or noise.shape[1:] != (K + 1, n) or len(noise) < 1:
        raise ShapeError(f"noise block shape {noise.shape}, expected (G >= 1, {K + 1}, {n})")
    G = len(noise)
    conds = class_indices(cond, G, policy.dims.num_classes)
    keep = sorted({int(k) for k in keep})
    if any(not 0 <= k < K for k in keep):
        raise DomainError(f"kept steps {keep} out of range [0, {K})")

    # Each layer after the input gets one slot per kept step, in keep
    # order, then one scratch slot.  All buffers are views of one
    # allocation: as separate arrays, freeing them let glibc's malloc
    # shrink the heap, and a loop of G = 64 rollouts then took 117 minor
    # page faults per call.
    T = len(keep)
    shapes = [(K + 1, G, policy.dims.net_input_size), (K, G, n), (G, n),
              *((T + 1, G, size) for size in net.layer_sizes[1:])]
    counts = [math.prod(shape) for shape in shapes]
    memory = np.empty(sum(counts))
    work, means, scaled, *layers = (memory[start:start + count].reshape(shape) for shape, count, start
                                    in zip(shapes, counts, accumulate(counts, initial=0)))
    work[:, :, n] = grid.times[:, None]
    work[:, :, n + 1:] = policy.cond_emb[conds]
    by_step = work[:, :, :n]
    by_step[0] = noise[:, 0]
    np.multiply(noise[:, 1:].transpose(1, 0, 2), grid.stds[:, None, None], out=by_step[1:])
    # step k's out buffers: its kept slot of each layer, else the scratch slot
    outs = [[layer[T] for layer in layers]] * K
    for u, k in enumerate(keep):
        outs[k] = [layer[u] for layer in layers]
    # looked up per call, so a wrapper installed on the module is the one called
    forward, multiply = kernels.forward, np.multiply
    weights, biases = net.weights, net.biases
    for a_x, a_v, x_in, x, x_next, mean, out in zip(grid.a_x.tolist(), grid.a_v.tolist(), work,
                                                    by_step, by_step[1:], means, outs):
        v = forward(weights, biases, x_in, out)[-1]
        multiply(x, a_x, out=mean)
        mean += multiply(v, a_v, out=scaled)
        x_next += mean
    if not np.isfinite(by_step[K]).all():
        _raise_first_failure(net, work, n, grid.times)
    return Rollout(
        grid=grid,
        net_inputs=work,
        step_means=means.transpose(1, 0, 2),
        conditions=conds,
        kept_steps=keep,
        kept_layers=[block[:T] for block in layers],
    )


def _raise_first_failure(net: MlpParams, work: np.ndarray, n: int, times: np.ndarray):
    """Raise the RolloutError of the first step k whose next state is not
    finite: its velocity was not finite, or else the state overflowed.
    Step k's input row ``work[k]`` is finite and was not written after
    step k, so one more forward pass gives the velocity it gave then,
    bit for bit."""
    k = next(k for k in range(len(work) - 1) if not np.isfinite(work[k + 1, :, :n]).all())
    t = float(times[k])
    if not np.isfinite(kernels.forward(net.weights, net.biases, work[k])[-1]).all():
        raise RolloutError(f"step {k} (t={t:.4f}): forward pass produced a non-finite output")
    bad = np.flatnonzero(~np.isfinite(work[k + 1, :, :n]).all(axis=1)).tolist()
    raise RolloutError(f"non-finite state in rollouts {bad} at step {k} (t={t:.4f})")


@dataclass
class TransitionEval:
    """A rollout's kept transitions evaluated under one policy: per-row
    log-densities and transition means, and the net's layer activations,
    kept for :func:`backprop_step`."""

    log_probs: np.ndarray
    means: np.ndarray
    acts: list


def _kept_targets(rollout: Rollout):
    """Each kept transition's next state, then its step's std, a_x and
    a_v from ``rollout.grid``, one per row, in the step-major row order
    of :meth:`Rollout.kept_activations`."""
    steps, n, grid = rollout.kept_steps, rollout.step_means.shape[-1], rollout.grid
    return (rollout.net_inputs[steps + 1, :, :n].reshape(-1, n),
            *(np.repeat(per_step[steps], len(rollout))
              for per_step in (grid.stds, grid.a_x, grid.a_v)))


def eval_step(policy: FlowPolicy, rollout: Rollout) -> TransitionEval:
    """Log-densities of a rollout's kept transitions under ``policy``,
    every kept step of every trajectory at once, in the step-major row
    order of :meth:`Rollout.kept_activations`.

    The kept steps' rows of ``rollout.net_inputs`` are gathered once and
    their embedding columns overwritten with ``policy``'s; one forward
    pass over them recomputes the transition means, while the visited
    states and the step constants the sampler drew with (``rollout.grid``)
    stay frozen.  Under the policy that sampled the rollout,
    :meth:`Rollout.recorded_eval` gives the same without the pass.
    """
    steps, n = rollout.kept_steps, policy.dims.state_size
    inputs = rollout.net_inputs[steps]
    inputs[:, :, n + 1:] = policy.cond_emb[rollout.conditions]
    inputs = inputs.reshape(-1, inputs.shape[-1])
    _, acts = mlp_forward_batch(policy.net, inputs)
    x_next, std, a_x, a_v = _kept_targets(rollout)
    means = a_x[:, None] * inputs[:, :n] + a_v[:, None] * acts[-1]
    return TransitionEval(_log_density_rows(x_next, means, std), means, acts)


def backprop_step(policy: FlowPolicy, rollout: Rollout, ev: TransitionEval,
                  upstream: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_r upstream[r] * log_prob[r]`` w.r.t. ``policy.vector``
    over the rollout's kept transitions, ``ev`` their evaluation under
    ``policy`` and both in the row order of :meth:`Rollout.kept_activations`.

    d logp / d mean = (x_next - mean) / std^2 and d mean / d v = a_v, the
    step's coefficient in ``rollout.grid``; the rest is :func:`_velocity_grad`.
    """
    x_next, std, _, a_v = _kept_targets(rollout)
    dmean = (x_next - ev.means) / (std * std)[:, None]
    upstream_v = (upstream * a_v)[:, None] * dmean
    # np.tile's rows from one C-level repeat (np.tile makes several numpy calls)
    conds = rollout.conditions[None].repeat(len(rollout.kept_steps), axis=0).reshape(-1)
    return _velocity_grad(policy, ev.acts, upstream_v, conds)


def _velocity_grad(policy: FlowPolicy, acts: list, upstream_v: np.ndarray,
                   conds: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ``policy.vector`` of ``sum_r upstream_v[r] . v_r``
    over velocities evaluated with activations ``acts`` under ``conds``:
    one backward pass writes the net's part of one new policy-sized
    vector, then each row's embedding slice is added to its condition's
    row of the rest."""
    grad = np.empty_like(policy.vector)
    net_size = policy.net.vector.size
    _, input_grads = mlp_backward_batch(policy.net, acts, upstream_v, grad[:net_size])
    emb_grad = grad[net_size:].reshape(policy.cond_emb.shape)
    emb_grad.fill(0.0)
    np.add.at(emb_grad, conds, input_grads[:, policy.dims.state_size + 1:])
    return grad


# ---------------------------------------------------------------------------
# Toy dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyDataset:
    """Unit-circle sequences: class c rotates at constant angular velocity
    and ends at angle 2 pi c / num_classes, plus small Gaussian jitter."""

    dims: PolicyDims = PolicyDims()
    omega: float = 0.2
    jitter: float = 0.01

    def __post_init__(self):
        if self.dims.frame_dim != 2:
            raise DomainError("circle dataset requires frame_dim = 2")

    def sample_batch(self, rng: np.random.Generator, n: int):
        """Returns (frames (n, T, 2), conditions (n,)), the conditions and
        then the jitter drawn from ``rng``."""
        if n < 1:
            raise DomainError("batch size must be >= 1")
        T, C = self.dims.frames, self.dims.num_classes
        conds = rng.integers(0, C, size=n)
        ends = 2.0 * math.pi * conds / C
        # angle of frame t: target - omega * (T - 1 - t), so the final frame
        # sits exactly on the class angle
        offsets = -self.omega * np.arange(T - 1, -1, -1)
        angles = ends[:, None] + offsets[None, :]
        frames = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        frames += self.jitter * rng.standard_normal(n * T * 2).reshape(n, T, 2)
        return frames, conds.astype(np.int64)

# ---------------------------------------------------------------------------
# Flow-matching pretraining
# ---------------------------------------------------------------------------


def _flow_matching_residual(policy: FlowPolicy, frames: np.ndarray, conds: np.ndarray,
                            t: np.ndarray, eps: np.ndarray):
    """Velocity minus (eps - data) at x_t = (1 - t) data + t eps, with the
    net's activations."""
    B = len(frames)
    data = frames.reshape(B, -1)
    x_t = (1.0 - t)[:, None] * data + t[:, None] * eps
    inputs = np.concatenate([x_t, t[:, None], policy.cond_emb[conds]], axis=1)
    v, acts = mlp_forward_batch(policy.net, inputs)
    return v - (eps - data), acts


def pretrain_flow_matching(policy: FlowPolicy, dataset, steps: int,
                           rng: RandomSource, batch_size: int, learning_rate: float):
    """Regress the velocity net onto (noise - data) along the linear path,
    ``steps`` Adam steps on batches of ``batch_size`` (a run's ``pretrain``
    section), step k's batch from ``rng``'s child stream (0, k) and its
    noise and flow times from (1, k).

    A generator, like :func:`grpo.train`: it yields ``(step, policy,
    loss)`` after each update, the step index, the updated policy and the
    batch's mean squared residual as a float, and nothing for 0 steps.  The
    caller keeps what it needs, so a run that fails at step k has already
    been handed its k losses.  The input policy is not mutated.
    """
    n = policy.dims.state_size
    opt = adam_init(policy.vector, learning_rate=learning_rate)
    for step in range(steps):
        frames, conds = dataset.sample_batch(rng.at_stream(0, step), batch_size)
        if len(frames) == 0:
            raise DomainError("empty dataset")
        if frames.shape[1] * frames.shape[2] != n:
            raise ShapeError("dataset sample size does not match the policy state")
        B = len(frames)
        noise_rng = rng.at_stream(1, step)
        eps = noise_rng.standard_normal(B * n).reshape(B, n)
        t = noise_rng.random(B)
        resid, acts = _flow_matching_residual(policy, frames, conds, t, eps)
        loss = float(np.mean(resid**2))
        grad = _velocity_grad(policy, acts, (2.0 / (B * n)) * resid, conds)
        vector, opt = adam_step_arrays(policy.vector, grad, opt)
        policy = replace(policy, vector=vector)
        yield step, policy, loss
