"""Group-relative policy optimization with the staged reward curriculum.

Each step rolls out a group of stochastic trajectories for one shared
condition under the reference policy, in one batched pass per SDE step
from one block of per-trajectory noise, scores the group's final frames
as one array with the reward suite, mixes the terms with the curriculum
gates, and ascends the clipped importance-ratio surrogate through the
per-step Gaussian transition densities.

The gradient is taken at a subset of the denoising steps, drawn once per
step and handed to the sampler as the rollout's kept steps; from there
the :class:`Rollout` is the one record of those transitions.  The sampler
writes their hidden and output activations into one block per layer, so
the backward pass reads those blocks in place; only the net-input rows
are gathered from the rollout's workspace.  On a refresh step the
reference is the policy being optimised, so the gradient needs nothing
the rollout lacks: the transition means and log-densities it recorded
and the activations it kept, and the ratios are exp(0) = 1.  Only against
a stale reference (``ref_refresh_interval > 1``) are the kept transitions
re-evaluated, in one batched forward pass, and only there can the clip
bind.

What does not change from step to step is resolved once per run: the
reward suite, a :class:`RewardSuite` checked and put in stage order when
it was built (:func:`train` fills in the default suite once); the
sampler's time grid and step constants (``SdeConfig.grid``, their one
home, which every rollout carries to its densities and gradient); the
kept-step count (``TrainConfig.kept_count``); and the net layout's
spans, from which each step's new policy and gradient are split
(``numerics._net_spans``; a new policy's finiteness is still checked).
A run opens one Philox stream, numpy's ``SeedSequence(seed,
spawn_key=(0,))``'s, and step k draws from that stream jumped k times
(``Philox.jumped(k)``): its condition, then its whole rollout noise as
one block, then its timestep subset.  So step k's draws depend on the
seed and k alone, whatever was drawn before, and a run's
:class:`GroupStreams` holds one generator on that stream, whatever the
run's length.  Train step k and eval group k draw their condition and
noise alike, through :meth:`GroupStreams.group`; eval draws no subset.

Advantages enter the gradient as constants: nothing differentiates
through the reward or mixing computations.

A run is the generator :func:`train`: it yields each updated policy and
the step's record, the dict written as its ``trainlog.jsonl`` line, as
soon as the step is done, and writes nothing itself.  Its caller decides
what a run keeps, so a run that fails keeps every step it completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .curriculum import CurriculumConfig, CurriculumState, curriculum_step, static_step
from .errors import DomainError, RolloutError, ShapeError, require_int, require_number
from .flow_policy import (
    FlowPolicy,
    PolicyDims,
    Rollout,
    SdeConfig,
    backprop_step,
    eval_step,
    sde_sample,
)
from .numerics import AdamState, KeyedGenerator, RandomSource, adam_init, adam_step_arrays
from .rewards import RewardSuite, default_suite, eval_group

# The child stream id of a run's groups.
_STREAM_GROUPS = 0


class GroupStreams:
    """The random draws of groups 0 ... count-1 of one run, what GRPO
    step k samples from, and eval group k.

    Group k draws from ``rng``'s child stream ``(0,)`` jumped k times
    (numpy's ``Philox(SeedSequence(seed, spawn_key=(0,))).jumped(k)``), in
    this order: its condition, its ``(group_size, num_steps + 1,
    dims.state_size)`` sampler noise as one ``standard_normal`` block,
    and, for a GRPO step, its timestep subset.  So eval group k, which
    draws no subset, gets train step k's condition and noise, and
    trajectory i's noise, row i of the block, does not depend on the
    group size.  The object keeps one :class:`KeyedGenerator` on the
    stream, keyed here, once; each draw resets it to group k's jump and
    finishes before :meth:`group` returns, so groups may be drawn in any
    order.
    """

    def __init__(self, rng: RandomSource, count: int, dims: PolicyDims, group_size: int,
                 num_steps: int):
        self.count, self.dims = count, dims
        self.group_size, self.num_steps = group_size, num_steps
        self._draws = KeyedGenerator(rng.key(_STREAM_GROUPS))

    def group(self, k: int, kept: int = 0):
        """Group k's condition and sampler noise, ``(cond, noise)``, and
        with ``kept > 0`` its timestep subset too, ``(cond, noise,
        subset)``: ``kept`` of the ``num_steps`` sampler steps, in order."""
        if not 0 <= k < self.count:
            raise DomainError(f"group {k} is outside this run's {self.count} groups")
        draw = self._draws.at(k)
        cond = int(draw.integers(0, self.dims.num_classes))
        noise = draw.standard_normal((self.group_size, self.num_steps + 1,
                                      self.dims.state_size))
        if kept <= 0:
            return cond, noise
        return cond, noise, np.sort(draw.permutation(self.num_steps)[:kept])


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on."""

    group_size: int = 16
    clip_eps: float = 0.1
    learning_rate: float = 3e-4
    num_steps: int = 200
    timestep_fraction: float = 0.6
    ratio_clamp_max: float = 5.0
    ref_refresh_interval: int = 1
    seed: int = 0
    sde: SdeConfig = field(default_factory=SdeConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    suite: RewardSuite | None = None  # train() fills in the standard three-stage suite
    static_stage: int | None = None  # train on one term only, bypassing gates
    smooth_window: int = 15
    max_grad_norm: float = 1.0  # 0 disables the global-norm clip

    def __post_init__(self):
        for name in ("group_size", "num_steps", "ref_refresh_interval", "seed",
                     "smooth_window"):
            require_int(name, getattr(self, name))
        for name in ("clip_eps", "learning_rate", "timestep_fraction", "ratio_clamp_max",
                     "max_grad_norm"):
            require_number(name, getattr(self, name))
        if self.static_stage is not None:
            require_int("static_stage", self.static_stage)
        if self.group_size < 2:
            raise DomainError("group_size must be >= 2")
        if self.clip_eps <= 0.0:
            raise DomainError("clip_eps must be > 0")
        if self.ratio_clamp_max <= 1.0:
            raise DomainError("ratio_clamp_max must be > 1")
        if not 0.0 < self.timestep_fraction <= 1.0:
            raise DomainError("timestep_fraction must lie in (0, 1]")
        if self.num_steps < 0:
            raise DomainError("num_steps must be >= 0")
        if self.ref_refresh_interval < 1:
            raise DomainError("ref_refresh_interval must be >= 1")
        if self.smooth_window < 1:
            raise DomainError("smooth_window must be >= 1")
        if self.learning_rate < 0.0:
            raise DomainError("learning_rate must be >= 0")
        if self.max_grad_norm < 0.0:
            raise DomainError("max_grad_norm must be >= 0")
        if (self.suite is not None and self.static_stage is not None
                and not 1 <= self.static_stage <= len(self.suite.terms)):
            raise DomainError(f"static_stage {self.static_stage} out of range")

    @cached_property
    def kept_count(self) -> int:
        """How many of the sampler's K steps each step's gradient is taken
        at: ceil(timestep_fraction * K), where a product within rounding
        of an integer counts as that integer (0.14 * 50 is
        7.000000000000001 in floats, and keeps 7 steps, not 8)."""
        product = self.timestep_fraction * self.sde.num_steps
        nearest = round(product)
        return nearest if math.isclose(product, nearest, rel_tol=1e-12) else math.ceil(product)


# ---------------------------------------------------------------------------
# Surrogate objective
# ---------------------------------------------------------------------------


def surrogate_objective(ratios: np.ndarray, advantages: np.ndarray, clip_eps: float):
    """Clipped pessimistic surrogate.

    J averages min(ratio * A, clip(ratio) * A) over samples and steps;
    the returned flags mark elements where the clipped branch is strictly
    the smaller one (there the objective is locally flat in the ratio).
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    advantages = np.asarray(advantages, dtype=np.float64)
    if ratios.ndim != 2 or advantages.shape != (ratios.shape[0],):
        raise ShapeError("ratios must be (G, T') with advantages (G,)")
    if clip_eps <= 0.0:
        raise DomainError("clip_eps must be > 0")
    raw = ratios * advantages[:, None]
    clipped = np.clip(ratios, 1.0 - clip_eps, 1.0 + clip_eps) * advantages[:, None]
    elems = np.minimum(raw, clipped)
    flags = clipped < raw
    return float(elems.mean()), flags


def surrogate_and_grads(policy: FlowPolicy, rollout: Rollout, advantages: np.ndarray,
                        clip_eps: float, ratio_clamp_max: float,
                        ref_policy: FlowPolicy | None = None):
    """Objective value and its exact gradient w.r.t. ``policy.vector``.

    Takes each kept transition's log-density under ``policy`` against the
    rollout's recorded reference log-densities, all G x T' of them at
    once, and backpropagates in one batched backward pass.  The ratio
    exp(new - old) is clamped to [1/ratio_clamp_max, ratio_clamp_max].
    The gradient flows only where the unclipped branch is active and the
    clamp does not bind; advantages are consumed as constants.

    ``ref_policy`` is the policy that sampled ``rollout``.  When it is
    ``policy`` itself, the new log-densities, means and activations are
    the rollout's own (:meth:`Rollout.recorded_eval`) and the ratios are
    exp(0) = 1.  Otherwise :func:`eval_step` re-evaluates the kept
    transitions in one batched forward pass.

    Returns ``(J, grads, ratios, clip_flags)``.
    """
    steps = rollout.kept_steps
    G, T_sel = len(rollout), len(steps)
    if G != len(advantages):
        raise ShapeError("one advantage per trajectory required")
    if T_sel < 1:
        raise DomainError("need at least one kept timestep")
    if rollout.log_probs is None:
        raise DomainError("trajectories must be sampled with eta > 0")
    advantages = np.asarray(advantages, dtype=np.float64)
    ev = rollout.recorded_eval() if ref_policy is policy else eval_step(policy, rollout)
    old = rollout.log_probs[:, steps]
    if not np.isfinite(old).all():
        raise DomainError("recorded log-probabilities must be finite")
    raw = np.exp(ev.log_probs.reshape(T_sel, G).T - old)
    ratios = np.clip(raw, 1.0 / ratio_clamp_max, ratio_clamp_max)
    J, flags = surrogate_objective(ratios, advantages, clip_eps)

    # no gradient where the clipped branch is selected (flat in the ratio)
    # or where the hard clamp binds (flat in the log-prob)
    live = ~flags & (raw > 1.0 / ratio_clamp_max) & (raw < ratio_clamp_max)
    upstream = np.where(live, ((1.0 / (G * T_sel)) * advantages)[:, None] * raw, 0.0)
    grads = backprop_step(policy, rollout, ev, upstream.T.reshape(-1))
    return J, grads, ratios, flags


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train_step(policy: FlowPolicy, ref_policy: FlowPolicy, config: TrainConfig,
               streams: GroupStreams, opt_state: AdamState | None = None,
               prior_state: CurriculumState | None = None, step_index: int = 0):
    """One optimization step.

    Rolls out the group under ``ref_policy``, scores it with
    ``config.suite`` (which :func:`train` sets), computes curriculum
    advantages, ascends the surrogate, and returns
    ``(policy, opt_state, curriculum state, record)``, the record being
    the dict written as the step's ``trainlog.jsonl`` line.  The step
    draws group ``step_index`` of ``streams``, built for the policy's
    dims and the config's group and sampler sizes, and the rollout keeps
    the step's timestep subset as its kept steps.  A step with
    ``ref_policy is policy`` is a refresh step: the gradient is taken from
    the rollout alone (see :func:`surrogate_and_grads`).  The Adam update
    is pure: the returned policy holds a new vector and neither input
    policy is written, so either may serve as a later step's reference.
    """
    if config.suite is None:
        raise DomainError("train_step needs config.suite; train() fills in the default")
    refresh = ref_policy is policy
    if opt_state is None:
        opt_state = adam_init(policy.vector, learning_rate=config.learning_rate)

    G, K, dims = config.group_size, config.sde.num_steps, policy.dims
    if (streams.dims, streams.group_size, streams.num_steps) != (dims, G, K):
        raise ShapeError("group streams were built for another policy or config")
    cond, noise, subset = streams.group(step_index, config.kept_count)
    try:
        rollout = sde_sample(ref_policy, cond, config.sde, noise, keep=subset)
    except RolloutError as exc:
        raise RolloutError(f"step {step_index}, condition {cond}: {exc}") from exc

    frames = rollout.final_states().reshape(G, dims.frames, dims.frame_dim)
    matrix = eval_group(config.suite, frames, cond)
    if config.static_stage is not None:
        state = static_step(matrix, config.static_stage)
    else:
        state = curriculum_step(matrix, config.curriculum, prior_state)

    J, grads, ratios, flags = surrogate_and_grads(
        policy, rollout, state.advantages, config.clip_eps, config.ratio_clamp_max,
        ref_policy=ref_policy,
    )
    grad_norm = math.sqrt(float(grads @ grads))
    # ascend J: Adam minimizes, so feed the negated (and clipped) gradient
    scale = -1.0
    if config.max_grad_norm > 0.0 and grad_norm > config.max_grad_norm:
        scale = -config.max_grad_norm / grad_norm
    vector, opt_state = adam_step_arrays(policy.vector, scale * grads, opt_state)
    policy = replace(policy, vector=vector)

    rec = {
        "step": step_index,
        "refresh": refresh,
        "condition": cond,
        "weights": state.weights.tolist(),
        "term_means": state.group_means.tolist(),
        "sparsities": state.sparsities.tolist(),
        "transitions": state.transitions.tolist(),
        "mixed_mean": float(state.mixed.mean()),
        "objective": J,
        "grad_norm": grad_norm,
        "clip_fraction": float(flags.mean()),
        "ratio_max_dev": float(np.abs(ratios - 1.0).max()),
    }
    return policy, opt_state, state, rec


def train(policy: FlowPolicy, config: TrainConfig):
    """Run ``config.num_steps`` optimization steps as a generator that
    yields ``(step, policy, record)`` after each update: the step index,
    the updated policy and the step's record, the dict written as its
    ``trainlog.jsonl`` line.  Nothing runs until the first ``next()``,
    nothing is written, and 0 steps yield nothing; the caller keeps what
    a run keeps, so a run that fails at step k has already handed over
    its k completed steps.

    The reference policy is refreshed every ``ref_refresh_interval``
    steps.  On a refresh step it is the policy object itself, which makes
    the step on-policy: its gradient comes from the rollout's own
    activations.  Steps against a stale reference re-evaluate the kept
    transitions.  This is sound because the Adam update is pure: no
    policy that was yielded or serves as a reference is ever written.  A
    fixed seed makes the whole trace bit-reproducible.
    """
    if config.suite is None:
        config = replace(config, suite=default_suite(policy.dims.num_classes))
    streams = GroupStreams(RandomSource(config.seed), config.num_steps, policy.dims,
                           config.group_size, config.sde.num_steps)
    opt_state = adam_init(policy.vector, learning_rate=config.learning_rate)
    prior = None
    for s in range(config.num_steps):
        if s % config.ref_refresh_interval == 0:  # always on step 0
            ref_policy = policy
        policy, opt_state, prior, rec = train_step(policy, ref_policy, config, streams,
                                                   opt_state, prior, s)
        yield s, policy, rec
