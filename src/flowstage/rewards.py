"""Staged reward terms over toy sequences.

Three built-in terms of increasing abstraction, each a bounded
exponential of a residual so that 1 is attained exactly on the term's
zero-residual set:

* fidelity    exp(-mean_t (|f_t| - 1)^2 / scale)        points on the circle
* smoothness  exp(-mean_t |f_{t+1} - 2 f_t + f_{t-1}|^2 / scale)
* alignment   exp(-angular_error(final frame, class angle)^2 / scale)

The bounded range is what makes the curriculum gate thresholds
comparable across terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError, require_int, require_number
from .flow_policy import ToySample

KINDS = ("fidelity", "smoothness", "alignment", "custom")

DEFAULT_SCALES = {"fidelity": 0.05, "smoothness": 0.02, "alignment": 0.5}

# below this radius the final frame has no defined angle; alignment is 0
DEGENERATE_RADIUS = 1e-9


@dataclass(frozen=True)
class RewardTerm:
    """One scoring function; ``stage`` orders terms from coarse to fine."""

    id: str
    stage: int
    kind: str
    scale: float
    num_classes: int = 0  # required by alignment to place class angles
    fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        require_int("stage", self.stage)
        require_number("scale", self.scale)
        if self.kind not in KINDS:
            raise DomainError(f"unknown reward kind {self.kind!r}")
        if self.scale <= 0.0:
            raise DomainError("scale must be positive")
        if self.kind == "alignment" and self.num_classes < 1:
            raise DomainError("alignment term needs num_classes >= 1")
        if self.kind == "custom" and self.fn is None:
            raise DomainError("custom term needs a callable")


def default_suite(num_classes: int, scales: dict | None = None) -> list:
    """The standard three-stage suite."""
    s = dict(DEFAULT_SCALES)
    if scales:
        s.update(scales)
    return [
        RewardTerm("fidelity", 1, "fidelity", s["fidelity"]),
        RewardTerm("smoothness", 2, "smoothness", s["smoothness"]),
        RewardTerm("alignment", 3, "alignment", s["alignment"], num_classes=num_classes),
    ]


def validate_suite(suite: Sequence[RewardTerm]) -> None:
    """Stage indices must be exactly 1..K."""
    if len(suite) < 1:
        raise DomainError("empty reward suite")
    stages = sorted(term.stage for term in suite)
    if stages != list(range(1, len(suite) + 1)):
        raise DomainError(f"stage indices must be contiguous 1..K, got {stages}")


@dataclass
class RewardMatrix:
    """Per-sample, per-term rewards for one group; ``flags`` marks entries
    that were zeroed because the term could not be evaluated."""

    values: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.flags = np.ascontiguousarray(self.flags, dtype=bool)
        if self.values.ndim != 2 or self.values.shape != self.flags.shape:
            raise ShapeError("values and flags must be matching (G, K) arrays")
        if not np.isfinite(self.values).all():
            raise DomainError("non-finite reward")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise DomainError("rewards must lie in [0, 1]")

    @property
    def group_size(self) -> int:
        return self.values.shape[0]

    @property
    def num_terms(self) -> int:
        return self.values.shape[1]


def wrapped_angle_error(angle: float, target: float) -> float:
    """Absolute angular difference folded into [0, pi]."""
    d = math.fmod(angle - target, 2.0 * math.pi)
    if d < -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return abs(d)


def _fidelity(sample: ToySample, scale: float) -> float:
    radii = np.linalg.norm(sample.frames, axis=1)
    return math.exp(-float(np.mean((radii - 1.0) ** 2)) / scale)


def _smoothness(sample: ToySample, scale: float) -> float:
    f = sample.frames
    if len(f) < 3:
        return 1.0  # no curvature measurable on two frames
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    return math.exp(-float(np.mean(np.sum(second**2, axis=1))) / scale)


def _alignment(sample: ToySample, term: RewardTerm) -> float:
    final = sample.frames[-1]
    if float(np.linalg.norm(final)) < DEGENERATE_RADIUS:
        raise DomainError("final frame at the origin: angle undefined")
    target = 2.0 * math.pi * sample.condition / term.num_classes
    err = wrapped_angle_error(math.atan2(final[1], final[0]), target)
    return math.exp(-err * err / term.scale)


def eval_reward_term(term: RewardTerm, sample: ToySample) -> float:
    """Score one sample with one term; always in [0, 1].

    A degenerate sample the term cannot score (final frame at the origin
    for alignment) yields 0.
    """
    try:
        return _eval_term_checked(term, sample)
    except DomainError:
        return 0.0


def _eval_term_checked(term: RewardTerm, sample: ToySample) -> float:
    if term.kind == "fidelity":
        return _fidelity(sample, term.scale)
    if term.kind == "smoothness":
        return _smoothness(sample, term.scale)
    if term.kind == "alignment":
        return _alignment(sample, term)
    value = float(term.fn(sample))
    if not 0.0 <= value <= 1.0 or not math.isfinite(value):
        raise DomainError(f"custom term {term.id!r} returned {value} outside [0, 1]")
    return value


def eval_group(suite: Sequence[RewardTerm], samples: Sequence[ToySample]) -> RewardMatrix:
    """Score every sample with every term, once each.

    Terms that fail on a sample contribute 0 with the diagnostic flag set.
    """
    validate_suite(suite)
    if len(samples) < 2:
        raise DomainError("group evaluation needs at least 2 samples")
    ordered = sorted(suite, key=lambda term: term.stage)
    G, K = len(samples), len(ordered)
    values = np.zeros((G, K))
    flags = np.zeros((G, K), dtype=bool)
    for i, sample in enumerate(samples):
        for j, term in enumerate(ordered):
            try:
                values[i, j] = _eval_term_checked(term, sample)
            except (DomainError, ShapeError):
                values[i, j] = 0.0
                flags[i, j] = True
    return RewardMatrix(values, flags)
