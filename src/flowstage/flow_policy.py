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
from typing import Sequence

import numpy as np

from .errors import DomainError, RolloutError, ShapeError, require_int, require_number
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
class ToySample:
    """One generated or dataset sequence: (frames, frame_dim) plus its class."""

    frames: np.ndarray
    condition: int

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 2:
            raise ShapeError(f"frames must be (T >= 2, D), got {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise DomainError("non-finite frame")
        self.condition = int(self.condition)


@dataclass
class FlowPolicy:
    """Velocity net plus one learned embedding row per condition class.

    Every trainable number lives in ``vector`` (see :attr:`layout`), used
    as given when it is a contiguous float64 array; ``net.weights``,
    ``net.biases`` and ``cond_emb`` are views into it.
    """

    dims: PolicyDims
    layer_sizes: tuple
    vector: np.ndarray
    net: MlpParams = field(init=False, repr=False)
    cond_emb: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        self.vector = np.ascontiguousarray(self.vector, dtype=np.float64)
        self.cond_emb = split_params(self.vector, self.layout)["cond_emb"]
        self.net = MlpParams(self.layer_sizes, self.vector[: -self.cond_emb.size])
        if self.net.input_size != self.dims.net_input_size:
            raise ShapeError(
                f"net input {self.net.input_size} != state + time + embedding "
                f"({self.dims.net_input_size})"
            )
        if self.net.output_size != self.dims.state_size:
            raise ShapeError(
                f"net output {self.net.output_size} != state size {self.dims.state_size}"
            )

    @property
    def layout(self) -> list:
        """``(name, shape)`` of each array of ``vector``: the net's, then
        ``cond_emb``."""
        return _policy_layout(self.layer_sizes, self.dims)

    def copy(self) -> "FlowPolicy":
        return replace(self, vector=self.vector.copy())


def _policy_layout(layer_sizes: tuple, dims: PolicyDims) -> list:
    return param_layout(layer_sizes, [("cond_emb", (dims.num_classes, dims.embed_dim))])


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


@dataclass
class Trajectory:
    """One trajectory of a :class:`Rollout`, with everything needed to
    re-evaluate it.

    ``log_probs[k]`` is the Gaussian log-density of ``states[k + 1]`` under
    mean ``step_means[k]`` and covariance ``step_stds[k]**2 * I``; it is
    None when eta = 0 (the rollout is deterministic, no density exists).
    """

    times: np.ndarray
    states: np.ndarray
    step_means: np.ndarray
    step_stds: np.ndarray
    log_probs: np.ndarray | None
    condition: int
    eta: float
    dt: float

    @property
    def num_steps(self) -> int:
        return len(self.step_stds)

    def final_state(self) -> np.ndarray:
        return self.states[-1]


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


def _transition_rows(times, states, stds, conds, dt, eta, steps) -> Transitions:
    """Rows for ``steps`` of every trajectory in ``states`` (G, K + 1, n),
    step-major: row ``u * G + i`` is trajectory i's step ``steps[u]``."""
    steps = np.asarray(steps, dtype=np.int64)
    G, K, n = states.shape[0], states.shape[1] - 1, states.shape[2]
    if steps.ndim != 1 or ((steps < 0) | (steps >= K)).any():
        raise DomainError(f"timestep indices {steps.tolist()} out of range [0, {K})")
    by_step = states.transpose(1, 0, 2)
    return Transitions(
        x=by_step[steps].reshape(-1, n),
        x_next=by_step[steps + 1].reshape(-1, n),
        t=np.repeat(times[steps], G),
        cond=np.tile(conds, len(steps)),
        std=np.repeat(stds[steps], G),
        dt=dt,
        eta=eta,
    )


@dataclass
class Rollout:
    """A group of G stochastic trajectories sampled together, one row each.

    ``states`` is (G, K + 1, n), ``step_means`` (G, K, n) and ``log_probs``
    (G, K), or None when eta = 0; the time grid ``times`` and the per-step
    ``step_stds`` are shared by the group.  ``kept`` maps each step named
    at sampling time to the velocity net's layer activations there, one
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

    def __getitem__(self, i: int) -> Trajectory:
        return Trajectory(
            times=self.times,
            states=self.states[i],
            step_means=self.step_means[i],
            step_stds=self.step_stds,
            log_probs=None if self.log_probs is None else self.log_probs[i],
            condition=int(self.conditions[i]),
            eta=self.eta,
            dt=self.dt,
        )

    def final_states(self) -> np.ndarray:
        return self.states[:, -1]

    def transitions(self, steps: Sequence[int]) -> Transitions:
        """The transitions at ``steps`` of every trajectory, step-major."""
        return _transition_rows(self.times, self.states, self.step_stds, self.conditions,
                                self.dt, self.eta, steps)

    def kept_activations(self, steps: Sequence[int]) -> list | None:
        """Layer activations at ``steps`` in the row order of
        :meth:`transitions`, or None unless every one of them was kept."""
        if not all(int(k) in self.kept for k in steps):
            return None
        return [np.concatenate(layer) for layer in zip(*(self.kept[int(k)] for k in steps))]


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
    if not 0 <= int(cond) < policy.dims.num_classes:
        raise DomainError(
            f"condition {cond} out of range [0, {policy.dims.num_classes})"
        )
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"flow time {t} outside [0, 1]")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (policy.dims.state_size,):
        raise ShapeError(f"state shape {x.shape}, expected ({policy.dims.state_size},)")
    return x


def velocity(policy: FlowPolicy, x: np.ndarray, t: float, cond: int) -> np.ndarray:
    """Velocity field at state ``x``, flow time ``t``, condition ``cond``."""
    x = _check_velocity_args(policy, x, t, cond)
    out, _ = mlp_forward(policy.net, _net_input(policy, x, float(t), int(cond)))
    return out


def score_from_velocity(x: np.ndarray, t: float, v: np.ndarray,
                        t_min: float = DEFAULT_T_MIN) -> np.ndarray:
    """Marginal score -(x + (1 - t) v) / t implied by the linear path.

    Singular at t = 0; callers must stay above ``t_min``.
    """
    if t < t_min:
        raise DomainError(f"flow time {t} below the score clamp t_min={t_min}")
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return -(x + (1.0 - t) * v) / t


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


def _log_density_rows(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Log-density of each row of ``x`` under N(mean_row, std_row^2 I)."""
    resid = x - mean
    var2 = 2.0 * std * std
    return (-0.5 * x.shape[1] * np.log(np.pi * var2)
            - np.einsum("ij,ij->i", resid, resid) / var2)


def decode_state(x: np.ndarray, dims: PolicyDims, cond: int) -> ToySample:
    """Reshape a flat final state into a frame sequence."""
    return ToySample(np.asarray(x).reshape(dims.frames, dims.frame_dim), cond)


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


def ode_sample(policy: FlowPolicy, cond: int, num_steps: int, rng: RandomSource,
               t_min: float = 0.0) -> ToySample:
    """Sample by integrating the deterministic flow; see :func:`ode_path`."""
    _, states = ode_path(policy, cond, num_steps, rng, t_min)
    return decode_state(states[-1], policy.dims, cond)


def sde_sample(policy: FlowPolicy, cond, config: SdeConfig,
               rngs: Sequence[RandomSource], keep: Sequence[int] = ()) -> Rollout:
    """Stochastic rollout of a group, dx = (v - sigma_t^2/2 * score) dt + sigma_t dw.

    Trajectory i draws its initial noise and all its step noise from
    ``rngs[i]`` in one call, so it does not depend on the group size;
    each SDE step is one forward pass over the whole group.  ``cond`` is
    one condition for the group or one per trajectory.  Each transition is
    Gaussian with mean from :func:`_step_coeffs` and std
    sigma_t * sqrt(|dt|) = eta * sqrt(t |dt|); the exact log-density of
    the realized next state is recorded (None when eta = 0).  The net's
    layer activations are kept for the steps in ``keep`` only.
    """
    G = len(rngs)
    if G < 1:
        raise DomainError("need one random stream per trajectory, got none")
    conds = np.broadcast_to(np.asarray(cond, dtype=np.int64), (G,)).copy()
    if ((conds < 0) | (conds >= policy.dims.num_classes)).any():
        raise DomainError(f"condition {cond} out of range")
    n = policy.dims.state_size
    K = config.num_steps
    keep = {int(k) for k in keep}
    if any(not 0 <= k < K for k in keep):
        raise DomainError(f"kept steps {sorted(keep)} out of range [0, {K})")
    times = time_grid(K, config.t_min)
    dt = (config.t_min - 1.0) / K
    eta = config.eta

    noise = np.stack([r.gaussian((K + 1) * n).reshape(K + 1, n) for r in rngs])
    states = np.empty((G, K + 1, n))
    states[:, 0] = noise[:, 0]
    means = np.empty((G, K, n))
    stds = np.empty(K)
    log_probs = np.empty((G, K)) if eta > 0.0 else None
    emb = policy.cond_emb[conds]
    kept = {}
    x = states[:, 0]
    for k in range(K):
        t = float(times[k])
        inputs = np.concatenate([x, np.full((G, 1), t), emb], axis=1)
        try:
            v, acts = mlp_forward_batch(policy.net, inputs)
        except DomainError as exc:
            raise RolloutError(f"step {k} (t={t:.4f}): {exc}") from exc
        a_x, a_v = _step_coeffs(t, dt, eta)
        mean = a_x * x + a_v * v
        std = eta * math.sqrt(t * -dt)
        x = mean + std * noise[:, k + 1]
        if not np.isfinite(x).all():
            bad = np.flatnonzero(~np.isfinite(x).all(axis=1)).tolist()
            raise RolloutError(f"non-finite state in rollouts {bad} at step {k} (t={t:.4f})")
        means[:, k] = mean
        stds[k] = std
        states[:, k + 1] = x
        if log_probs is not None:
            log_probs[:, k] = _log_density_rows(x, mean, np.full(G, std))
        if k in keep:
            kept[k] = acts
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


def eval_step(policy: FlowPolicy, rows: Transitions,
              acts: list | None = None) -> TransitionEval:
    """Log-densities of recorded transitions under ``policy``, every
    selected step of every trajectory at once.

    The transition means are recomputed from this policy's velocity in one
    forward pass over all rows; the visited states and the noise scales
    stay frozen.  ``acts``, the layer activations the rollout itself kept
    at these rows, replaces that forward pass; pass it only when
    ``policy`` is the policy that sampled the rollout.
    """
    if acts is None:
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


def log_prob_under(policy: FlowPolicy, traj: Trajectory,
                   timestep_subset: Sequence[int] | None = None) -> np.ndarray:
    """Per-step log-densities of a recorded rollout under a (possibly
    different) policy; see :func:`eval_step`."""
    if traj.log_probs is None:
        raise DomainError("trajectory was sampled with eta = 0; no density exists")
    steps = range(traj.num_steps) if timestep_subset is None else timestep_subset
    rows = _transition_rows(traj.times, traj.states[None], traj.step_stds,
                            np.array([traj.condition]), traj.dt, traj.eta, list(steps))
    return eval_step(policy, rows).log_probs


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

    def target_angle(self, cond: int) -> float:
        return 2.0 * math.pi * int(cond) / self.dims.num_classes

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

    def sample(self, rng: RandomSource) -> ToySample:
        frames, conds = self.sample_batch(rng, 1)
        return ToySample(frames[0], int(conds[0]))


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


def flow_matching_loss(policy: FlowPolicy, frames: np.ndarray, conds: np.ndarray,
                       t: np.ndarray, eps: np.ndarray) -> float:
    """Mean squared residual of the velocity net against (noise - data)."""
    resid, _ = _flow_matching_residual(policy, frames, conds, t, eps)
    return float(np.mean(resid**2))


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
