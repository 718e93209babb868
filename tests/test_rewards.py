"""Reward term contracts: exact values on zero-residual sets, hand-derived
cases, monotonicity, and group evaluation semantics."""

import dataclasses
import math

import numpy as np
import pytest
from helpers import philox
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage.errors import DomainError, ShapeError
from flowstage.flow_policy import PolicyDims, ToyDataset
from flowstage.rewards import (
    DEGENERATE_RADIUS,
    RewardMatrix,
    RewardSuite,
    RewardTerm,
    default_suite,
    eval_group,
    wrapped_angle_error,
)


def circle(angles, radius=1.0):
    """(T, 2) frames at ``angles`` on the circle of ``radius``."""
    angles = np.asarray(angles, dtype=np.float64)
    return radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def score(term, frames, cond=0):
    """``term``'s value on one (T, D) frame sequence: row 0 of a two-row
    group of it (a group needs at least two rows)."""
    matrix = eval_group(RewardSuite([dataclasses.replace(term, stage=1)]),
                        np.stack([frames, frames]), cond)
    return float(matrix.values[0, 0])


FID = RewardTerm("fid", 1, "fidelity", 0.05)
SMOOTH = RewardTerm("smooth", 2, "smoothness", 0.02)
ALIGN8 = RewardTerm("align", 3, "alignment", 0.5, num_classes=8)


class TestFidelity:
    def test_unit_circle_frames_score_one(self):
        assert score(FID, circle([0.1, 0.7, 1.3, 2.0])) == 1.0

    def test_radius_two_scale_one_is_exp_minus_one(self):
        term = RewardTerm("fid", 1, "fidelity", 1.0)
        frames = circle([0.0, 1.0, 2.0], radius=2.0)
        np.testing.assert_allclose(score(term, frames), math.exp(-1.0), rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = philox(5)
        frames = rng.standard_normal(12).reshape(6, 2)
        radii = np.sqrt((frames**2).sum(axis=1))
        expected = math.exp(-np.mean((radii - 1.0) ** 2) / FID.scale)
        np.testing.assert_allclose(score(FID, frames), expected, rtol=1e-12)

    def test_strictly_decreasing_in_radial_residual(self):
        values = [
            score(FID, circle([0.0, 0.5, 1.0], radius=r))
            for r in (1.0, 1.05, 1.1, 1.3, 1.8)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSmoothness:
    def test_constant_sequence_scores_one(self):
        assert score(SMOOTH, np.tile([0.3, -0.4], (5, 1))) == 1.0

    def test_linear_motion_scores_one(self):
        frames = np.linspace([0.0, 0.0], [1.0, 2.0], 6)
        assert score(SMOOTH, frames) == 1.0

    def test_matches_direct_formula(self):
        rng = philox(6)
        frames = rng.standard_normal(10).reshape(5, 2)
        second = frames[2:] - 2 * frames[1:-1] + frames[:-2]
        expected = math.exp(-np.mean((second**2).sum(axis=1)) / SMOOTH.scale)
        np.testing.assert_allclose(score(SMOOTH, frames), expected, rtol=1e-12)

    def test_strictly_decreasing_in_curvature(self):
        base = np.linspace([0.0, 0.0], [1.0, 0.0], 7)
        values = []
        for bend in (0.0, 0.05, 0.1, 0.2, 0.4):
            frames = base.copy()
            frames[3, 1] += bend
            values.append(score(SMOOTH, frames))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAlignment:
    def test_exact_target_scores_one(self):
        target = 2.0 * math.pi * 3 / 8
        assert score(ALIGN8, circle([0.0, target]), cond=3) == 1.0

    def test_matches_direct_formula(self):
        err = wrapped_angle_error(1.9, 2.0 * math.pi * 2 / 8)
        expected = math.exp(-err * err / ALIGN8.scale)
        np.testing.assert_allclose(score(ALIGN8, circle([0.0, 1.9]), cond=2), expected,
                                   rtol=1e-12)

    def test_strictly_decreasing_in_angular_error(self):
        values = [
            score(ALIGN8, circle([0.0, err]), cond=0)
            for err in (0.0, 0.3, 1.0, 2.0, math.pi)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_origin_final_frame_scores_zero(self):
        frames = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert score(ALIGN8, frames) == 0.0

    def test_wrapping(self):
        assert wrapped_angle_error(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
        assert wrapped_angle_error(-math.pi, math.pi) == pytest.approx(0.0, abs=1e-12)


class TestEvalGroup:
    def suite(self):
        return default_suite(num_classes=8)

    def test_identical_samples_give_constant_columns(self):
        frames = np.stack([circle([0.0, 0.5, 1.0])] * 4)
        matrix = eval_group(self.suite(), frames, 1)
        for j in range(matrix.num_terms):
            assert np.ptp(matrix.values[:, j]) == 0.0

    def test_single_term_matches_per_sample_eval(self):
        rng = philox(7)
        frames = rng.standard_normal(24).reshape(3, 4, 2)
        matrix = eval_group(RewardSuite([FID]), frames, 0)
        expected = [score(FID, f) for f in frames]
        np.testing.assert_allclose(matrix.values[:, 0], expected, rtol=1e-12)

    def test_matches_elementwise_oracle(self):
        ds = ToyDataset(PolicyDims(frames=6, frame_dim=2, num_classes=8, embed_dim=2))
        frames, conds = ds.sample_batch(philox(8), 5)
        suite = self.suite()
        matrix = eval_group(suite, frames, conds)
        ordered = sorted(suite.terms, key=lambda t: t.stage)
        for i, (f, c) in enumerate(zip(frames, conds)):
            for j, term in enumerate(ordered):
                np.testing.assert_allclose(matrix.values[i, j], score(term, f, c), rtol=1e-12)

    def test_permutation_equivariance(self):
        ds = ToyDataset(PolicyDims(frames=6, frame_dim=2, num_classes=8, embed_dim=2))
        frames, conds = ds.sample_batch(philox(9), 6)
        perm = philox(10).permutation(6)
        m1 = eval_group(self.suite(), frames, conds)
        m2 = eval_group(self.suite(), frames[perm], conds[perm])
        np.testing.assert_array_equal(m1.values[perm], m2.values)

    def test_degenerate_sample_flagged(self):
        ok = circle([0.0, 0.5])
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        matrix = eval_group(self.suite(), np.stack([ok, bad]), 0)
        align_col = 2
        assert matrix.flags[1, align_col]
        assert matrix.values[1, align_col] == 0.0
        assert not matrix.flags[0].any()

    def test_group_too_small_rejected(self):
        with pytest.raises(DomainError):
            eval_group(self.suite(), circle([0.0, 0.5])[None], 0)


class TestSuiteValidation:
    def test_contiguous_stages_required(self):
        bad = [RewardTerm("a", 1, "fidelity", 0.1), RewardTerm("b", 3, "smoothness", 0.1)]
        with pytest.raises(DomainError):
            RewardSuite(bad)
        with pytest.raises(DomainError):
            RewardSuite(())

    def test_reward_suite_checked_and_ordered_once(self):
        terms = default_suite(num_classes=8).terms
        suite = RewardSuite(tuple(reversed(terms)))
        assert suite.terms == tuple(terms)
        assert suite.num_classes == 8
        assert RewardSuite([terms[0]]).num_classes is None
        with pytest.raises(DomainError):
            RewardSuite((terms[0], terms[2]))
        frames = 2.0 * philox(6).standard_normal(4 * 8 * 2).reshape(4, 8, 2)
        reordered, ordered = eval_group(suite, frames, 3), eval_group(RewardSuite(terms), frames, 3)
        np.testing.assert_array_equal(reordered.values, ordered.values)
        np.testing.assert_array_equal(reordered.flags, ordered.flags)

    def test_alignment_requires_classes(self):
        with pytest.raises(DomainError):
            RewardTerm("align", 1, "alignment", 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            RewardTerm("x", 1, "mystery", 0.5)


class TestRangeInvariant:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rewards_always_in_unit_interval(self, seed):
        rng = philox(seed)
        frames = 2.0 * rng.standard_normal(10).reshape(5, 2)
        cond = int(rng.integers(0, 8))
        for term in default_suite(num_classes=8).terms:
            value = score(term, frames, cond)
            assert 0.0 <= value <= 1.0

    def test_matrix_validation_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            RewardMatrix(np.array([[0.5, 1.2]]), np.zeros((1, 2), dtype=bool))


# --- per-sample oracle: the scalar formulas the array scorer replaced ------


def _oracle_wrapped(angle, target):
    d = math.fmod(angle - target, 2.0 * math.pi)
    if d < -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return abs(d)


def _oracle_fidelity(frames, scale):
    radii = np.linalg.norm(frames, axis=1)
    return math.exp(-float(np.mean((radii - 1.0) ** 2)) / scale)


def _oracle_smoothness(f, scale):
    if len(f) < 3:
        return 1.0
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    return math.exp(-float(np.mean(np.sum(second**2, axis=1))) / scale)


def _oracle_alignment(frames, condition, term):
    final = frames[-1]
    if float(np.linalg.norm(final)) < DEGENERATE_RADIUS:
        raise DomainError("final frame at the origin")
    target = 2.0 * math.pi * condition / term.num_classes
    err = _oracle_wrapped(math.atan2(final[1], final[0]), target)
    return math.exp(-err * err / term.scale)


def _oracle_term(term, frames, condition):
    if term.kind == "fidelity":
        return _oracle_fidelity(frames, term.scale)
    if term.kind == "smoothness":
        return _oracle_smoothness(frames, term.scale)
    return _oracle_alignment(frames, condition, term)


def oracle_group(terms, frames, conditions):
    ordered = sorted(terms, key=lambda term: term.stage)
    values = np.zeros((len(frames), len(ordered)))
    flags = np.zeros(values.shape, dtype=bool)
    for i, (f, c) in enumerate(zip(frames, conditions)):
        for j, term in enumerate(ordered):
            try:
                values[i, j] = _oracle_term(term, f, c)
            except (DomainError, ShapeError):
                flags[i, j] = True
    return values, flags


class TestArrayScorer:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_sample_oracle(self, data):
        G = data.draw(st.integers(2, 70), label="G")
        T = data.draw(st.integers(2, 10), label="T")
        D = data.draw(st.sampled_from([2, 3]), label="D")
        rng = philox(data.draw(st.integers(0, 2**32), label="seed"))
        scales = 10.0 ** (4.0 * rng.random(G) - 3.0)[:, None, None]
        frames = scales * rng.standard_normal(G * T * D).reshape(G, T, D)
        origin = data.draw(st.lists(st.integers(0, G - 1), max_size=G // 2), label="origin")
        frames[origin, -1] = 0.0
        classes = data.draw(st.integers(1, 12), label="classes")
        if data.draw(st.booleans(), label="one condition"):
            conds = data.draw(st.integers(0, classes - 1), label="cond")
            per_row = [conds] * G
        else:
            conds = rng.integers(0, classes, size=G)
            per_row = conds.tolist()
        terms = [
            RewardTerm("fidelity", 1, "fidelity",
                       data.draw(st.floats(0.01, 2.0), label="fid scale")),
            RewardTerm("smoothness", 2, "smoothness",
                       data.draw(st.floats(0.01, 2.0), label="smooth scale")),
            RewardTerm("alignment", 3, "alignment",
                       data.draw(st.floats(0.01, 2.0), label="align scale"), num_classes=classes),
        ]
        terms = data.draw(st.permutations(terms), label="suite order")

        matrix = eval_group(RewardSuite(terms), frames, conds)
        values, flags = oracle_group(terms, frames, per_row)
        np.testing.assert_array_equal(matrix.values, values)
        np.testing.assert_array_equal(matrix.flags, flags)
        assert matrix.flags[origin, 2].all()

    def test_strided_view_scores_like_a_copy(self):
        states = philox(11).standard_normal(5 * 3 * 8).reshape(5, 3, 8)
        view = states[:, -1].reshape(5, 4, 2)
        assert not view.flags.c_contiguous and np.shares_memory(view, states)
        suite = default_suite(8)
        np.testing.assert_array_equal(eval_group(suite, view, 3).values,
                                      eval_group(suite, view.copy(), 3).values)

    def test_non_finite_frames_rejected(self):
        frames = np.zeros((3, 4, 2))
        frames[1, 2, 0] = np.nan
        with pytest.raises(DomainError):
            eval_group(RewardSuite([FID]), frames, 0)

    @pytest.mark.parametrize("conds", [8, 9, -1, [0, 9, 1], 2.5, [0, 1.5, 2], 2.0, True])
    def test_bad_conditions_rejected(self, conds):
        frames = np.stack([circle([0.0, 0.5, 1.0])] * 3)
        with pytest.raises(DomainError):
            eval_group(default_suite(8), frames, conds)

    def test_conditions_unchecked_against_classes_without_alignment(self):
        frames = np.stack([circle([0.0, 0.5, 1.0])] * 3)
        np.testing.assert_array_equal(eval_group(RewardSuite([FID]), frames, 9).values,
                                      eval_group(RewardSuite([FID]), frames, 0).values)
        with pytest.raises(DomainError):
            eval_group(RewardSuite([FID]), frames, 0.5)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            eval_group(RewardSuite([FID]), np.zeros((3, 8)), 0)
        with pytest.raises(ShapeError):
            eval_group(RewardSuite([FID]), np.zeros((3, 1, 2)), 0)
        with pytest.raises(ShapeError):
            eval_group(RewardSuite([FID]), np.zeros((3, 4, 2)), [0, 1])
        align = RewardTerm("align", 1, "alignment", 0.5, num_classes=8)
        with pytest.raises(ShapeError):
            eval_group(RewardSuite([align]), np.ones((3, 4, 1)), 0)
