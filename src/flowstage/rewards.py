"""Staged reward terms over toy sequences, scored a whole group at a time.

Three terms of increasing abstraction, each a bounded exponential of a
residual so that 1 is attained exactly on the term's zero-residual set:

* fidelity    exp(-mean_t (|f_t| - 1)^2 / scale)        points on the circle
* smoothness  exp(-mean_t |f_{t+1} - 2 f_t + f_{t-1}|^2 / scale)
* alignment   exp(-angular_error(final frame, class angle)^2 / scale)

The bounded range is what makes the curriculum gate thresholds
comparable across terms.

A group is one ``(G, T, D)`` frame array with one condition per row (or
one for the group).  Each term reduces the whole array at once (radii
and their mean, second differences, the final frame), each reduction
along the last axis of every row, which sums in the same order as it
would for that row alone.  Only the step from the G reduced
residuals to rewards is scalar: ``math.exp``, and ``math.atan2`` for the
final frame's angle, once per row.  numpy's vectorised ``exp`` and
``arctan2`` can differ from the C library's by an ulp, so keeping them
scalar keeps every reward bit-identical to scoring one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError, class_indices, require_int, require_number

KINDS = ("fidelity", "smoothness", "alignment")

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

    def __post_init__(self):
        require_int("stage", self.stage)
        require_number("scale", self.scale)
        if self.kind not in KINDS:
            raise DomainError(f"unknown reward kind {self.kind!r}")
        if self.scale <= 0.0:
            raise DomainError("scale must be positive")
        if self.kind == "alignment" and self.num_classes < 1:
            raise DomainError("alignment term needs num_classes >= 1")


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


def wrapped_angle_error(angle, target):
    """Absolute angular difference folded into [0, pi], elementwise."""
    d = np.fmod(np.subtract(angle, target), 2.0 * math.pi)
    d = np.where(d < -math.pi, d + 2.0 * math.pi, np.where(d > math.pi, d - 2.0 * math.pi, d))
    return np.abs(d)


def _exp_each(exponents: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry: the C library's exp, one scalar at a time."""
    return np.array([math.exp(x) for x in exponents.tolist()])


def _fidelity(frames: np.ndarray, scale: float) -> np.ndarray:
    radii = np.linalg.norm(frames, axis=2)
    return _exp_each(-np.mean((radii - 1.0) ** 2, axis=1) / scale)


def _smoothness(frames: np.ndarray, scale: float) -> np.ndarray:
    if frames.shape[1] < 3:
        return np.ones(len(frames))  # no curvature measurable on two frames
    second = frames[:, 2:] - 2.0 * frames[:, 1:-1] + frames[:, :-2]
    return _exp_each(-np.mean(np.sum(second**2, axis=2), axis=1) / scale)


def _alignment(frames: np.ndarray, conds: np.ndarray, term: RewardTerm):
    """Values and flags; a final frame at the origin has no angle and
    scores 0, flagged."""
    final = frames[:, -1]
    if final.shape[1] < 2:
        raise ShapeError(f"alignment term {term.id!r} needs frames of dimension >= 2, "
                         f"got {final.shape[1]}")
    degenerate = np.linalg.norm(final, axis=1) < DEGENERATE_RADIUS
    angles = np.array([math.atan2(y, x) for x, y in final[:, :2].tolist()])
    err = wrapped_angle_error(angles, 2.0 * math.pi * conds / term.num_classes)
    values = _exp_each(-err * err / term.scale)
    values[degenerate] = 0.0
    return values, degenerate


def _score_term(term: RewardTerm, frames: np.ndarray, conds: np.ndarray):
    """One term's ``(values, flags)`` over the rows of ``frames``."""
    if term.kind == "alignment":
        return _alignment(frames, conds, term)
    score = _fidelity if term.kind == "fidelity" else _smoothness
    return score(frames, term.scale), np.zeros(len(frames), dtype=bool)


def eval_group(suite: Sequence[RewardTerm], frames, conditions) -> RewardMatrix:
    """Score every row of a ``(G, T, D)`` frame array with every term.

    ``conditions`` is one class for the whole group or one per row, each
    an integer in the range of every alignment term's classes.  Terms
    that cannot score a row contribute 0 with the diagnostic flag
    set; non-finite frames are rejected.
    """
    validate_suite(suite)
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1] < 2:
        raise ShapeError(f"frames must be (G, T >= 2, D), got {frames.shape}")
    G = len(frames)
    if G < 2:
        raise DomainError("group evaluation needs at least 2 samples")
    if not np.isfinite(frames).all():
        raise DomainError("non-finite frame")
    classes = min((term.num_classes for term in suite if term.kind == "alignment"),
                  default=None)
    conds = class_indices(conditions, G, classes)
    columns = [_score_term(term, frames, conds)
               for term in sorted(suite, key=lambda term: term.stage)]
    return RewardMatrix(np.stack([v for v, _ in columns], axis=1),
                        np.stack([f for _, f in columns], axis=1))
