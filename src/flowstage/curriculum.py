"""Competence-gated mixing of staged reward terms.

Per training group, each reward term j gets a gate score

    g_j = sigmoid(mean_j - threshold_j) + beta * (S_j - S_{j-1})

where S_j is the Hoyer sparsity of the term's reward vector (0 for a
near-constant vector, 1 for a one-hot one) and S_0 = 0.  Stage weights
are softmax(alpha * g); the mixed reward is the weighted sum of terms,
and group-normalized advantages are computed from it.

The sparsity difference implements a saturation hand-off: once a term
scores the whole group uniformly high it has stopped discriminating, its
Hoyer sparsity collapses toward 0, and the difference term drains weight
from it into its successor.  Combined with the threshold gate this moves
emphasis from coarse terms to fine ones exactly when the coarse ones are
mastered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, require_number
from .rewards import RewardMatrix

ADVANTAGE_STD_FLOOR = 1e-8
CALIBRATION_FRACTION = 0.7
DEFAULT_THRESHOLDS = (0.75, 0.75, 0.75)


@dataclass(frozen=True)
class CurriculumConfig:
    """Gate sharpness, sparsity balance, per-stage thresholds, and how
    weights persist across groups."""

    alpha: float = 8.0
    beta: float = 1.0
    thresholds: tuple = DEFAULT_THRESHOLDS
    weight_mode: str = "per_group"  # or "ema"
    ema_decay: float = 0.9

    def __post_init__(self):
        for name in ("alpha", "beta", "ema_decay"):
            require_number(name, getattr(self, name))
        for t in self.thresholds:
            require_number("thresholds", t)
        if self.alpha <= 0.0:
            raise DomainError("alpha must be > 0")
        if self.beta < 0.0:
            raise DomainError("beta must be >= 0")
        if len(self.thresholds) < 1:
            raise DomainError("need at least one threshold")
        if self.weight_mode not in ("per_group", "ema"):
            raise DomainError(f"unknown weight_mode {self.weight_mode!r}")
        if self.weight_mode == "ema" and not 0.0 < self.ema_decay < 1.0:
            raise DomainError("ema_decay must lie in (0, 1)")
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))


@dataclass
class CurriculumState:
    """Everything one mixing step derives from a reward matrix."""

    group_means: np.ndarray
    sparsities: np.ndarray
    transitions: np.ndarray
    weights: np.ndarray
    mixed: np.ndarray
    advantages: np.ndarray


def sigmoid(x: float) -> float:
    """Logistic function, stable for large |x|."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def hoyer(r: np.ndarray) -> float:
    """Normalized L1/L2 sparsity in [0, 1].

    0 for a constant positive vector, 1 for a one-hot vector; an all-zero
    vector carries no saturation signal and maps to 0.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 1 or len(r) < 2:
        raise DomainError("hoyer needs a 1-d vector of length >= 2")
    if (r < 0.0).any():
        raise DomainError("hoyer is undefined for negative entries")
    l2 = math.sqrt(float(r @ r))
    if l2 == 0.0:
        return 0.0
    root_g = math.sqrt(len(r))
    value = (root_g - float(r.sum()) / l2) / (root_g - 1.0)
    return float(min(max(value, 0.0), 1.0))


def group_means(matrix: RewardMatrix) -> np.ndarray:
    """Column means of the reward matrix."""
    if matrix.group_size < 2:
        raise DomainError("need a group of at least 2")
    return _mean(matrix.values)


def _mean(values: np.ndarray) -> np.ndarray:
    """Mean along axis 0, as ``np.mean`` forms it (sum, then divide by the
    count) without its dispatch."""
    return np.add.reduce(values, axis=0) / len(values)


def transition(j: int, means: np.ndarray, sparsities: np.ndarray,
               config: CurriculumConfig) -> float:
    """Gate score g_j for stage j (1-indexed).

    The first stage has no predecessor, so its hand-off term uses S_0 = 0
    and reduces to sigmoid(mean - threshold) + beta * S_1.
    """
    if not 1 <= j <= len(means):
        raise DomainError(f"stage index {j} out of range 1..{len(means)}")
    if len(config.thresholds) < len(means):
        raise DomainError("fewer thresholds than stages")
    s_prev = 0.0 if j == 1 else float(sparsities[j - 2])
    s_own = float(sparsities[j - 1])
    gate = sigmoid(float(means[j - 1]) - config.thresholds[j - 1])
    return gate + config.beta * (s_own - s_prev)


def stage_weights(g: np.ndarray, alpha: float) -> np.ndarray:
    """softmax(alpha * g), computed with max subtraction."""
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    z = alpha * np.asarray(g, dtype=np.float64)
    z -= z.max()
    np.exp(z, out=z)
    z /= z.sum()
    return z


def mixed_reward(matrix: RewardMatrix, weights: np.ndarray) -> np.ndarray:
    """Per-sample weighted sum of reward terms."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (matrix.num_terms,):
        raise ShapeError(f"weights shape {weights.shape}, expected ({matrix.num_terms},)")
    if abs(float(weights.sum()) - 1.0) > 1e-9 or weights.min() < -1e-12:
        raise DomainError("weights must lie on the probability simplex")
    return matrix.values @ weights


def normalize_advantages(mixed: np.ndarray) -> np.ndarray:
    """Center and scale by the population std (floored for flat groups)."""
    mixed = np.asarray(mixed, dtype=np.float64)
    if mixed.ndim != 1 or len(mixed) < 2:
        raise DomainError("need a group of at least 2")
    centered = mixed - _mean(mixed)
    std = math.sqrt(float(_mean(centered * centered)))
    centered /= std + ADVANTAGE_STD_FLOOR
    return centered


def curriculum_step(matrix: RewardMatrix, config: CurriculumConfig,
                    prior_state: CurriculumState | None = None) -> CurriculumState:
    """Full mixing chain: means, sparsities, gates, weights, mixture,
    advantages.

    In ema mode, weights are blended with the prior state's weights and
    re-normalized, smoothing the curriculum across groups.
    """
    if matrix.num_terms > len(config.thresholds):
        raise DomainError(
            f"{matrix.num_terms} reward terms but only "
            f"{len(config.thresholds)} thresholds"
        )
    means = group_means(matrix)
    sparsities = np.array([hoyer(matrix.values[:, j]) for j in range(matrix.num_terms)])
    gates = np.array([
        transition(j, means, sparsities, config) for j in range(1, matrix.num_terms + 1)
    ])
    weights = stage_weights(gates, config.alpha)
    if config.weight_mode == "ema" and prior_state is not None:
        weights = config.ema_decay * prior_state.weights + (1.0 - config.ema_decay) * weights
        weights = weights / weights.sum()
    mixed = mixed_reward(matrix, weights)
    return CurriculumState(
        group_means=means,
        sparsities=sparsities,
        transitions=gates,
        weights=weights,
        mixed=mixed,
        advantages=normalize_advantages(mixed),
    )


def smooth_curve(values: Sequence[float], window: int) -> np.ndarray:
    """Centered moving average with edge truncation."""
    if window < 1:
        raise DomainError("window must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ShapeError("smooth_curve expects a 1-d series")
    left, right = (window - 1) // 2, window // 2
    out = np.empty_like(values)
    for i in range(len(values)):
        lo, hi = max(0, i - left), min(len(values), i + right + 1)
        out[i] = values[lo:hi].mean()
    return out


def calibrate_thresholds(per_stage_logs: Sequence[Sequence[float]],
                         smooth_window: int = 5):
    """Thresholds from single-stage probe runs.

    Each curve is the per-step group mean of one term while training on
    that term alone; the threshold is placed 70% of the way up the
    smoothed observed improvement.  A non-improving curve keeps its start
    value and emits a warning.

    Returns ``(thresholds, warnings)``.
    """
    taus = []
    warnings = []
    for j, curve in enumerate(per_stage_logs, start=1):
        curve = np.asarray(curve, dtype=np.float64)
        if curve.ndim != 1 or len(curve) < 1:
            raise DomainError(f"stage {j}: empty reward curve")
        sm = smooth_curve(curve, smooth_window)
        start, end = float(sm[0]), float(sm[-1])
        if end <= start:
            taus.append(start)
            warnings.append(
                f"stage {j}: reward did not improve ({start:.4f} -> {end:.4f}); "
                "threshold kept at the start value"
            )
        else:
            taus.append(start + CALIBRATION_FRACTION * (end - start))
    return np.array(taus), warnings
