"""Group-relative policy optimization with the staged reward curriculum.

Each step rolls out a group of stochastic trajectories for one shared
condition under the reference policy, in one batched pass per SDE step
from one block of per-trajectory noise, scores the group's final frames
as one array with the reward suite, mixes the terms with the curriculum
gates, and ascends the clipped importance-ratio surrogate through the
per-step Gaussian transition densities.

On a refresh step the reference is the policy being optimised, so
everything the gradient needs at the selected steps is already in the
rollout: the transition means and log-densities it recorded and the
layer activations it kept.  The ratios are then exp(0) = 1.  Only
against a stale reference (``ref_refresh_interval > 1``) are the
selected transitions re-evaluated in one batched forward pass, and only
there can the clip bind.

What does not change from step to step is resolved once per run: the
reward suite (checked and put in stage order) and the sampler's time
grid and step constants (``SdeConfig.grid``).  Each step's condition
and timestep subset are drawn from their stream keys through the run's
one scratch generator (``RandomSource.at_stream``).

Advantages enter the gradient as constants: nothing differentiates
through the reward or mixing computations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .curriculum import (
    CurriculumConfig,
    CurriculumState,
    curriculum_step,
    group_means,
    hoyer,
    normalize_advantages,
)
from .errors import DomainError, RolloutError, ShapeError, require_int, require_number
from .flow_policy import (
    FlowPolicy,
    Rollout,
    SdeConfig,
    backprop_step,
    eval_step,
    sde_sample,
)
from .numerics import AdamState, RandomSource, adam_init, adam_step_arrays
from .rewards import RewardSuite, RewardTerm, default_suite, eval_group

# Stream ids for per-step child RNGs.
_STREAM_COND, _STREAM_ROLLOUT, _STREAM_SUBSET = 0, 1, 2


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
    suite: tuple | RewardSuite | None = None  # defaults to the standard three-stage suite
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
        if self.suite is not None and not isinstance(self.suite, RewardSuite):
            object.__setattr__(self, "suite", tuple(self.suite))


@dataclass
class StepRecord:
    """One optimization step's logged statistics."""

    step: int
    refresh: bool
    condition: int
    weights: np.ndarray
    term_means: np.ndarray
    sparsities: np.ndarray
    transitions: np.ndarray
    mixed_mean: float
    objective: float
    grad_norm: float
    clip_fraction: float
    ratio_max_dev: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "refresh": self.refresh,
            "condition": self.condition,
            "weights": self.weights.tolist(),
            "term_means": self.term_means.tolist(),
            "sparsities": self.sparsities.tolist(),
            "transitions": self.transitions.tolist(),
            "mixed_mean": self.mixed_mean,
            "objective": self.objective,
            "grad_norm": self.grad_norm,
            "clip_fraction": self.clip_fraction,
            "ratio_max_dev": self.ratio_max_dev,
        }


@dataclass
class TrainLog:
    """Append-only list of step records with tabular/JSONL export."""

    records: list = field(default_factory=list)

    def append(self, rec: StepRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def term_means_matrix(self) -> np.ndarray:
        """Per-term group means, one row per step."""
        return np.stack([r.term_means for r in self.records])

    def write_jsonl(self, fp) -> None:
        for rec in self.records:
            fp.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")

    def write_csv(self, fp) -> None:
        if not self.records:
            fp.write("")
            return
        K = len(self.records[0].weights)
        header = (
            ["step", "refresh", "condition", "objective", "grad_norm",
             "clip_fraction", "ratio_max_dev", "mixed_mean"]
            + [f"weight_{j}" for j in range(1, K + 1)]
            + [f"term_mean_{j}" for j in range(1, K + 1)]
            + [f"sparsity_{j}" for j in range(1, K + 1)]
            + [f"gate_{j}" for j in range(1, K + 1)]
        )
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        for r in self.records:
            row = [r.step, int(r.refresh), r.condition, repr(r.objective),
                   repr(r.grad_norm), repr(r.clip_fraction), repr(r.ratio_max_dev),
                   repr(r.mixed_mean)]
            for arr in (r.weights, r.term_means, r.sparsities, r.transitions):
                row.extend(repr(float(x)) for x in arr)
            writer.writerow(row)


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


def surrogate_and_grads(policy: FlowPolicy, rollout: Rollout,
                        advantages: np.ndarray, timestep_subset: Sequence[int],
                        clip_eps: float, ratio_clamp_max: float,
                        ref_policy: FlowPolicy | None = None):
    """Objective value and its exact gradient w.r.t. ``policy.vector``.

    Takes each selected transition's log-density under ``policy`` against
    the rollout's recorded reference log-densities, all G x T' of them at
    once, and backpropagates in one batched backward pass.  The ratio
    exp(new - old) is clamped to [1/ratio_clamp_max, ratio_clamp_max].
    The gradient flows only where the unclipped branch is active and the
    clamp does not bind; advantages are consumed as constants.

    ``ref_policy`` is the policy that sampled ``rollout``.  When it is
    ``policy`` itself and the rollout kept its activations at the
    selected steps, the new log-densities, means and activations are the
    rollout's own (:meth:`Rollout.recorded_eval`) and the ratios are
    exp(0) = 1.  Otherwise :func:`eval_step` re-evaluates the
    transitions in one batched forward pass.

    Returns ``(J, grads, ratios, clip_flags)``.
    """
    subset = [int(k) for k in timestep_subset]
    G, T_sel = len(rollout), len(subset)
    if G != len(advantages):
        raise ShapeError("one advantage per trajectory required")
    if T_sel < 1:
        raise DomainError("need at least one selected timestep")
    if rollout.log_probs is None:
        raise DomainError("trajectories must be sampled with eta > 0")
    advantages = np.asarray(advantages, dtype=np.float64)
    rows = rollout.transitions(subset)
    ev = rollout.recorded_eval(subset) if ref_policy is policy else None
    if ev is None:
        ev = eval_step(policy, rows)
    old = rollout.log_probs[:, subset]
    if not np.isfinite(old).all():
        raise DomainError("recorded log-probabilities must be finite")
    raw = np.exp(ev.log_probs.reshape(T_sel, G).T - old)
    ratios = np.clip(raw, 1.0 / ratio_clamp_max, ratio_clamp_max)
    J, flags = surrogate_objective(ratios, advantages, clip_eps)

    # no gradient where the clipped branch is selected (flat in the ratio)
    # or where the hard clamp binds (flat in the log-prob)
    live = ~flags & (raw > 1.0 / ratio_clamp_max) & (raw < ratio_clamp_max)
    upstream = np.where(live, ((1.0 / (G * T_sel)) * advantages)[:, None] * raw, 0.0)
    grads = backprop_step(policy, rows, ev, upstream.T.reshape(-1))
    return J, grads, ratios, flags


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _resolve_suite(policy: FlowPolicy, config: TrainConfig) -> RewardSuite:
    """The run's reward suite, checked; :func:`train` resolves it once and
    hands it to every step in the config."""
    suite = config.suite
    if suite is None:
        suite = default_suite(policy.dims.num_classes)
    suite = RewardSuite.of(suite)
    if config.static_stage is not None and not 1 <= config.static_stage <= len(suite.terms):
        raise DomainError(f"static_stage {config.static_stage} out of range")
    return suite


def _static_state(matrix, stage: int) -> CurriculumState:
    """Fixed one-hot mixing for single-stage probe/baseline runs."""
    means = group_means(matrix)
    sparsities = np.array([hoyer(matrix.values[:, j]) for j in range(matrix.num_terms)])
    weights = np.zeros(matrix.num_terms)
    weights[stage - 1] = 1.0
    mixed = matrix.values[:, stage - 1].copy()
    return CurriculumState(
        group_means=means,
        sparsities=sparsities,
        transitions=np.zeros(matrix.num_terms),
        weights=weights,
        mixed=mixed,
        advantages=normalize_advantages(mixed),
    )


def train_step(policy: FlowPolicy, ref_policy: FlowPolicy, config: TrainConfig,
               rng: RandomSource, opt_state: AdamState | None = None,
               prior_state: CurriculumState | None = None, step_index: int = 0,
               refresh: bool = True):
    """One optimization step.

    Rolls out the group under ``ref_policy``, computes curriculum
    advantages, ascends the surrogate, and returns
    ``(policy, opt_state, curriculum state, step record)``.  When
    ``ref_policy is policy`` the rollout keeps its activations at the
    selected steps and the gradient is taken from the rollout alone (see
    :func:`surrogate_and_grads`).  The Adam update
    is pure: the returned policy holds a new vector and neither input
    policy is written, so either may serve as a later step's reference.
    """
    suite = _resolve_suite(policy, config)
    if opt_state is None:
        opt_state = adam_init(policy.vector, learning_rate=config.learning_rate)

    cond = int(rng.at_stream(_STREAM_COND, step_index).integers(0, policy.dims.num_classes))
    K = config.sde.num_steps
    n_sel = math.ceil(config.timestep_fraction * K)
    subset = np.sort(rng.at_stream(_STREAM_SUBSET, step_index).permutation(K)[:n_sel])
    G, dims = config.group_size, policy.dims
    noise = rng.gaussian_streams((_STREAM_ROLLOUT, step_index), G, (K + 1) * dims.state_size)
    try:
        rollout = sde_sample(ref_policy, cond, config.sde, noise.reshape(G, K + 1, -1),
                             keep=subset if ref_policy is policy else ())
    except RolloutError as exc:
        raise RolloutError(f"step {step_index}, condition {cond}: {exc}") from exc

    matrix = eval_group(suite, rollout.final_states().reshape(G, dims.frames, dims.frame_dim),
                        cond)
    if config.static_stage is not None:
        state = _static_state(matrix, config.static_stage)
    else:
        state = curriculum_step(matrix, config.curriculum, prior_state)

    J, grads, ratios, flags = surrogate_and_grads(
        policy, rollout, state.advantages, subset, config.clip_eps,
        config.ratio_clamp_max, ref_policy=ref_policy,
    )
    grad_norm = math.sqrt(float(grads @ grads))
    # ascend J: Adam minimizes, so feed the negated (and clipped) gradient
    scale = -1.0
    if config.max_grad_norm > 0.0 and grad_norm > config.max_grad_norm:
        scale = -config.max_grad_norm / grad_norm
    vector, opt_state = adam_step_arrays(policy.vector, scale * grads, opt_state)
    policy = replace(policy, vector=vector)

    rec = StepRecord(
        step=step_index,
        refresh=refresh,
        condition=cond,
        weights=state.weights.copy(),
        term_means=state.group_means.copy(),
        sparsities=state.sparsities.copy(),
        transitions=state.transitions.copy(),
        mixed_mean=float(state.mixed.mean()),
        objective=J,
        grad_norm=grad_norm,
        clip_fraction=float(flags.mean()),
        ratio_max_dev=float(np.abs(ratios - 1.0).max()),
    )
    return policy, opt_state, state, rec


def train(policy: FlowPolicy, config: TrainConfig, step_callback=None):
    """Run ``config.num_steps`` optimization steps.

    The reference policy is refreshed every ``ref_refresh_interval``
    steps.  On a refresh step the reference is the policy object itself,
    which makes the step on-policy: its gradient comes from the rollout's
    own activations.  Steps against a stale reference re-evaluate the
    selected transitions.  Keeping the policy object as the reference is
    sound because the Adam update is pure: it never writes the old
    vector, so the reference keeps the parameters that sampled.  A fixed
    seed makes the whole trace bit-reproducible.  The optional
    ``step_callback(step, policy, record)`` runs after each update
    (checkpointing hook).  Returns ``(policy, TrainLog)``.
    """
    config = replace(config, suite=_resolve_suite(policy, config))
    rng = RandomSource(config.seed)
    opt_state = adam_init(policy.vector, learning_rate=config.learning_rate)
    log = TrainLog()
    ref_policy = policy
    prior = None
    for s in range(config.num_steps):
        refresh = s % config.ref_refresh_interval == 0
        if refresh:
            ref_policy = policy
        policy, opt_state, state, rec = train_step(
            policy, ref_policy, config, rng, opt_state, prior, s, refresh
        )
        prior = state
        log.append(rec)
        if step_callback is not None:
            step_callback(s, policy, rec)
    return policy, log

