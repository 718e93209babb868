"""Conditional flow-matching policy over short frame sequences.

A single MLP predicts a velocity field v(x, t, class); integrating it
backward from t = 1 (pure noise) to t = 0 (data) generates samples.  The
stochastic sampler adds a score-corrected drift and Brownian noise so
that every transition has a tractable Gaussian density, which is what
the policy-gradient trainer differentiates.

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
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

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

    def copy(self) -> "FlowPolicy":
        return replace(self, vector=self.vector.copy())


def _policy_layout(layer_sizes: tuple, dims: PolicyDims) -> list:
    return param_layout(layer_sizes, [("cond_emb", (dims.num_classes, dims.embed_dim))])


class SdeGrid(NamedTuple):
    """An :class:`SdeConfig`'s per-step constants: the K + 1 flow times
    from 1 down to t_min, the shared step size dt < 0, each step's noise
    std eta * sqrt(t_k |dt|), and each step's mean coefficients
    ``(a_x, a_v)`` from :func:`_step_coeffs`.  The arrays are read-only."""

    times: np.ndarray
    dt: float
    stds: np.ndarray
    coeffs: list


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
        times = time_grid(self.num_steps, self.t_min)
        dt = (self.t_min - 1.0) / self.num_steps
        stds = self.eta * np.sqrt(times[:-1] * -dt)
        times.flags.writeable = stds.flags.writeable = False
        return SdeGrid(times, dt, stds,
                       [_step_coeffs(t, dt, self.eta) for t in times[:-1].tolist()])


@dataclass
class Transitions:
    """Recorded transitions x -> x_next, one per row, each with its own
    flow time, condition and noise std; the step size and eta are shared."""

    x: np.ndarray
    x_next: np.ndarray
    t: np.ndarray
    cond: np.ndarray
    std: np.ndarray
    dt: float
    eta: float


@dataclass
class Rollout:
    """The one record of sampled trajectories: a group of G sampled
    together, trajectory i in row i of each per-trajectory array.

    ``states`` is (G, K + 1, n), ``step_means`` (G, K, n) and ``log_probs``
    (G, K): ``log_probs[i, k]`` is the Gaussian log-density of
    ``states[i, k + 1]`` under mean ``step_means[i, k]`` and covariance
    ``step_stds[k]**2 * I``, and ``log_probs`` is None when eta = 0 (the
    rollout is deterministic, no density exists).  The time grid ``times``
    and the per-step ``step_stds`` are shared by the group (they are the
    sampler config's read-only :class:`SdeGrid` arrays), ``conditions``
    holds one class per trajectory.  ``kept`` maps each step named at
    sampling time to the velocity net's layer activations there, one
    (G, size) array per layer.
    """

    times: np.ndarray
    states: np.ndarray
    step_means: np.ndarray
    step_stds: np.ndarray
    log_probs: np.ndarray | None
    conditions: np.ndarray
    eta: float
    dt: float
    kept: dict

    def __len__(self) -> int:
        return len(self.states)

    def final_states(self) -> np.ndarray:
        return self.states[:, -1]

    def transitions(self, steps: Sequence[int]) -> Transitions:
        """The transitions at ``steps`` of every trajectory, step-major:
        row ``u * G + i`` is trajectory i's step ``steps[u]``."""
        steps = np.asarray(steps, dtype=np.int64)
        G, K, n = self.states.shape[0], self.states.shape[1] - 1, self.states.shape[2]
        if steps.ndim != 1 or ((steps < 0) | (steps >= K)).any():
            raise DomainError(f"timestep indices {steps.tolist()} out of range [0, {K})")
        by_step = self.states.transpose(1, 0, 2)
        return Transitions(
            x=by_step[steps].reshape(-1, n),
            x_next=by_step[steps + 1].reshape(-1, n),
            t=np.repeat(self.times[steps], G),
            cond=np.tile(self.conditions, len(steps)),
            std=np.repeat(self.step_stds[steps], G),
            dt=self.dt,
            eta=self.eta,
        )

    def kept_activations(self, steps: Sequence[int]) -> list | None:
        """Layer activations at ``steps`` in the row order of
        :meth:`transitions`, or None unless every one of them was kept."""
        if not all(int(k) in self.kept for k in steps):
            return None
        return [np.concatenate(layer) for layer in zip(*(self.kept[int(k)] for k in steps))]

    def recorded_eval(self, steps: Sequence[int]) -> "TransitionEval | None":
        """What :func:`eval_step` gives at ``steps`` under the policy that
        sampled this rollout, read from the rollout instead of recomputed:
        the recorded means and log-densities, the kept activations and
        d mean / d v, in the row order of :meth:`transitions`.  None
        unless every one of the steps was kept and the rollout has
        densities (eta > 0).

        The sampler formed each mean and log-density with the operations
        :func:`eval_step` uses, so they equal what it computes from these
        activations, bit for bit.  A fresh forward pass over all the rows
        at once can differ from the sampler's per-step passes at rounding
        level (a wider BLAS product may sum in another order).
        """
        acts = self.kept_activations(steps)
        if acts is None or self.log_probs is None:
            return None
        steps = np.asarray(steps, dtype=np.int64)
        _, a_v = _step_coeffs(self.times[steps], self.dt, self.eta)
        return TransitionEval(
            log_probs=self.log_probs[:, steps].T.reshape(-1),
            means=self.step_means[:, steps].transpose(1, 0, 2).reshape(-1, self.states.shape[2]),
            acts=acts,
            a_v=np.repeat(a_v, len(self)),
        )


# ---------------------------------------------------------------------------
# Policy construction / checkpoints
# ---------------------------------------------------------------------------


def init_flow_policy(dims: PolicyDims, hidden: Sequence[int] = (64, 64),
                     rng: RandomSource | None = None) -> FlowPolicy:
    rng = rng if rng is not None else RandomSource(0)
    sizes = (dims.net_input_size, *hidden, dims.state_size)
    net = init_mlp(sizes, rng.stream(0))
    emb = rng.stream(1).gaussian(dims.num_classes * dims.embed_dim) / math.sqrt(dims.embed_dim)
    return FlowPolicy(dims, sizes, np.concatenate([net.vector, emb]))


def save_policy(path, policy: FlowPolicy, extra_meta: dict | None = None) -> None:
    """Checkpoint with one array per entry of ``policy.layout``, by name."""
    meta = {
        "kind": "flow_policy",
        "layer_sizes": list(policy.layer_sizes),
        "activation": "tanh",
        "dims": {
            "frames": policy.dims.frames,
            "frame_dim": policy.dims.frame_dim,
            "num_classes": policy.dims.num_classes,
            "embed_dim": policy.dims.embed_dim,
        },
    }
    if extra_meta:
        meta.update(extra_meta)
    write_checkpoint(path, meta, split_params(policy.vector, policy.layout))


def load_policy(path):
    """Returns ``(FlowPolicy, meta)``."""
    meta, arrays = read_checkpoint(path)
    if meta.get("kind") != "flow_policy":
        raise DomainError(f"{path}: not a flow policy checkpoint")
    if meta.get("activation", "tanh") != "tanh":
        raise DomainError(f"{path}: unsupported activation {meta['activation']!r}")
    sizes = tuple(meta["layer_sizes"])
    dims = PolicyDims(**meta["dims"])
    return FlowPolicy(dims, sizes, join_params(arrays, _policy_layout(sizes, dims))), meta


# ---------------------------------------------------------------------------
# Velocity and score
# ---------------------------------------------------------------------------


def _net_input(policy: FlowPolicy, x: np.ndarray, t: float, cond: int) -> np.ndarray:
    return np.concatenate([x, [t], policy.cond_emb[cond]])


def _check_velocity_args(policy: FlowPolicy, x: np.ndarray, t: float, cond: int):
    """``(x, cond)`` checked: the condition an integer class of the policy
    (see :func:`errors.class_indices`), the time in [0, 1], the state one
    vector of the policy's state size."""
    cond = int(class_indices(cond, 1, policy.dims.num_classes)[0])
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"flow time {t} outside [0, 1]")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (policy.dims.state_size,):
        raise ShapeError(f"state shape {x.shape}, expected ({policy.dims.state_size},)")
    return x, cond


def velocity(policy: FlowPolicy, x: np.ndarray, t: float, cond: int) -> np.ndarray:
    """Velocity field at state ``x``, flow time ``t``, condition ``cond``."""
    x, cond = _check_velocity_args(policy, x, t, cond)
    out, _ = mlp_forward(policy.net, _net_input(policy, x, float(t), cond))
    return out


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def time_grid(num_steps: int, t_min: float = 0.0) -> np.ndarray:
    """Uniform decreasing times from 1 to t_min, num_steps + 1 points."""
    if num_steps < 1:
        raise DomainError("num_steps must be >= 1")
    return np.linspace(1.0, float(t_min), num_steps + 1)


def _step_coeffs(t: float, dt: float, eta: float):
    """mean = a_x * x + a_v * v for one Euler-Maruyama step.

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


def ode_path(policy: FlowPolicy, cond: int, num_steps: int, rng: RandomSource,
             t_min: float = 0.0):
    """Deterministic Euler integration of dx = v dt from noise at t = 1.

    Returns ``(times, states)`` with states stacked (num_steps + 1, n).
    """
    times = time_grid(num_steps, t_min)
    dt = (float(t_min) - 1.0) / num_steps
    x = rng.gaussian(policy.dims.state_size)
    states = [x]
    _check_velocity_args(policy, x, float(times[0]), cond)
    for k in range(num_steps):
        try:
            v = velocity(policy, x, float(times[k]), cond)
        except DomainError as exc:
            raise RolloutError(f"step {k} (t={times[k]:.4f}): {exc}") from exc
        x = x + dt * v
        if not np.isfinite(x).all():
            raise RolloutError(f"non-finite state at step {k} (t={times[k]:.4f})")
        states.append(x)
    return times, np.stack(states)


def sde_sample(policy: FlowPolicy, cond, config: SdeConfig, noise: np.ndarray,
               keep: Sequence[int] = ()) -> Rollout:
    """Stochastic rollout of a group, dx = (v - sigma_t^2/2 * score) dt + sigma_t dw.

    ``noise`` is the group's standard normal noise block, (G, K + 1, n):
    row i holds trajectory i's initial state and then its K step
    increments.  Drawing row i from its own stream, as
    ``RandomSource.gaussian_streams(ids, G, (K + 1) * n)`` does (row i
    equals ``stream(*ids, i).gaussian((K + 1) * n)`` bit for bit), makes
    a trajectory's noise independent of the group size.  Its states are
    not, bit for bit: a G-row matrix product may sum in another order
    than a one-row one, so they move with G at rounding level (one
    64-row forward differed from row-by-row forwards by up to 8.9e-16).
    Each SDE step is one forward pass over the whole group.  ``cond`` is
    one integer condition for the group or one per trajectory.  Each
    transition is Gaussian with mean from :func:`_step_coeffs` and std
    sigma_t * sqrt(|dt|) = eta * sqrt(t |dt|); the exact log-density of
    the realized next state is recorded (None when eta = 0).  The net's
    layer activations are kept for the steps in ``keep`` only.

    ``noise`` is only read.  The net input is one (G, in) buffer reused
    by every step, so a kept step's input activations are a copy of it.
    Every array of the returned :class:`Rollout` is new and the caller's
    but ``times`` and ``step_stds``, the read-only ``config.grid``.
    ``states[:, k + 1]`` starts as ``std_k * noise[:, k + 1]`` and step k
    adds its mean, the same IEEE sum as ``mean + std_k * noise``.
    """
    n = policy.dims.state_size
    K = config.num_steps
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim != 3 or noise.shape[1:] != (K + 1, n) or len(noise) < 1:
        raise ShapeError(f"noise block shape {noise.shape}, expected (G >= 1, {K + 1}, {n})")
    G = len(noise)
    conds = class_indices(cond, G, policy.dims.num_classes)
    keep = {int(k) for k in keep}
    if any(not 0 <= k < K for k in keep):
        raise DomainError(f"kept steps {sorted(keep)} out of range [0, {K})")
    times, dt, stds, coeffs = config.grid
    eta = config.eta

    states = np.empty((G, K + 1, n))
    states[:, 0] = noise[:, 0]
    np.multiply(noise[:, 1:], stds[:, None], out=states[:, 1:])
    means = np.empty((G, K, n))
    inputs = np.empty((G, policy.dims.net_input_size))
    inputs[:, n + 1:] = policy.cond_emb[conds]
    kept = {}
    for k, (a_x, a_v) in enumerate(coeffs):
        t = float(times[k])
        x = states[:, k]
        inputs[:, :n] = x
        inputs[:, n] = t
        try:
            v, acts = mlp_forward_batch(policy.net, inputs)
        except DomainError as exc:
            raise RolloutError(f"step {k} (t={t:.4f}): {exc}") from exc
        mean = np.multiply(x, a_x, out=means[:, k])
        mean += a_v * v
        x_next = states[:, k + 1]
        x_next += mean
        if not np.isfinite(x_next).all():
            bad = np.flatnonzero(~np.isfinite(x_next).all(axis=1)).tolist()
            raise RolloutError(f"non-finite state in rollouts {bad} at step {k} (t={t:.4f})")
        if k in keep:
            kept[k] = [acts[0].copy(), *acts[1:]]
    log_probs = _log_density_rows(states[:, 1:], means, stds) if eta > 0.0 else None
    return Rollout(
        times=times,
        states=states,
        step_means=means,
        step_stds=stds,
        log_probs=log_probs,
        conditions=conds,
        eta=eta,
        dt=dt,
        kept=kept,
    )


@dataclass
class TransitionEval:
    """Recorded transitions re-evaluated under one policy: per-row
    log-densities and transition means, the net's layer activations and
    d mean / d v, kept for :func:`backprop_step`."""

    log_probs: np.ndarray
    means: np.ndarray
    acts: list
    a_v: np.ndarray


def eval_step(policy: FlowPolicy, rows: Transitions) -> TransitionEval:
    """Log-densities of recorded transitions under ``policy``, every
    selected step of every trajectory at once.

    The transition means are recomputed from this policy's velocity in one
    forward pass over all rows; the visited states and the noise scales
    stay frozen.  Under the policy that sampled the rollout,
    :meth:`Rollout.recorded_eval` gives the same without the pass.
    """
    inputs = np.concatenate([rows.x, rows.t[:, None], policy.cond_emb[rows.cond]], axis=1)
    _, acts = mlp_forward_batch(policy.net, inputs)
    a_x, a_v = _step_coeffs(rows.t, rows.dt, rows.eta)
    means = a_x * rows.x + a_v[:, None] * acts[-1]
    return TransitionEval(_log_density_rows(rows.x_next, means, rows.std), means, acts, a_v)


def backprop_step(policy: FlowPolicy, rows: Transitions, ev: TransitionEval,
                  upstream: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_r upstream[r] * log_prob[r]`` w.r.t. ``policy.vector``.

    d logp / d mean = (x_next - mean) / std^2 and d mean / d v = a_v; the
    rest is :func:`_velocity_grad`.
    """
    dmean = (rows.x_next - ev.means) / (rows.std * rows.std)[:, None]
    upstream_v = (upstream * ev.a_v)[:, None] * dmean
    return _velocity_grad(policy, ev.acts, upstream_v, rows.cond)


def _velocity_grad(policy: FlowPolicy, acts: list, upstream_v: np.ndarray,
                   conds: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. ``policy.vector`` of ``sum_r upstream_v[r] . v_r``
    over velocities evaluated with activations ``acts`` under ``conds``:
    one backward pass, then each row's embedding slice to its condition."""
    net_grad, input_grads = mlp_backward_batch(policy.net, acts, upstream_v)
    emb_grad = np.zeros_like(policy.cond_emb)
    np.add.at(emb_grad, conds, input_grads[:, policy.dims.state_size + 1:])
    return np.concatenate([net_grad, emb_grad.ravel()])


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

    def sample_batch(self, rng: RandomSource, n: int):
        """Returns (frames (n, T, 2), conditions (n,))."""
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
        frames += self.jitter * rng.gaussian(n * T * 2).reshape(n, T, 2)
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
                           rng: RandomSource, batch_size: int = 64,
                           learning_rate: float = 1e-3):
    """Regress the velocity net onto (noise - data) along the linear path.

    Returns ``(trained policy, per-step loss curve)``; the input policy is
    not mutated.
    """
    if steps == 0:
        return policy.copy(), []
    n = policy.dims.state_size
    opt = adam_init(policy.vector, learning_rate=learning_rate)
    losses = []
    for step in range(steps):
        frames, conds = dataset.sample_batch(rng.stream(0, step), batch_size)
        if len(frames) == 0:
            raise DomainError("empty dataset")
        if frames.shape[1] * frames.shape[2] != n:
            raise ShapeError("dataset sample size does not match the policy state")
        B = len(frames)
        noise_rng = rng.stream(1, step)
        eps = noise_rng.gaussian(B * n).reshape(B, n)
        t = noise_rng.uniform(B)
        resid, acts = _flow_matching_residual(policy, frames, conds, t, eps)
        losses.append(float(np.mean(resid**2)))
        grad = _velocity_grad(policy, acts, (2.0 / (B * n)) * resid, conds)
        vector, opt = adam_step_arrays(policy.vector, grad, opt)
        policy = replace(policy, vector=vector)
    return policy, losses
