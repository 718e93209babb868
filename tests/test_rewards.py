"""Reward term contracts: exact values on zero-residual sets, hand-derived
cases, monotonicity, and group evaluation semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage import rewards
from flowstage.errors import DomainError, ShapeError
from flowstage.flow_policy import PolicyDims, ToyDataset, ToySample
from flowstage.numerics import RandomSource
from flowstage.rewards import (
    DEGENERATE_RADIUS,
    RewardMatrix,
    RewardTerm,
    default_suite,
    eval_group,
    eval_reward_term,
    validate_suite,
    wrapped_angle_error,
)


def circle_sample(angles, cond=0, radius=1.0):
    angles = np.asarray(angles, dtype=np.float64)
    frames = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return ToySample(frames, cond)


def as_group(samples):
    """``(frames, conditions)`` arrays of a list of samples, for eval_group."""
    return np.stack([s.frames for s in samples]), [s.condition for s in samples]


FID = RewardTerm("fid", 1, "fidelity", 0.05)
SMOOTH = RewardTerm("smooth", 2, "smoothness", 0.02)
ALIGN8 = RewardTerm("align", 3, "alignment", 0.5, num_classes=8)


class TestFidelity:
    def test_unit_circle_frames_score_one(self):
        s = circle_sample([0.1, 0.7, 1.3, 2.0])
        assert eval_reward_term(FID, s) == 1.0

    def test_radius_two_scale_one_is_exp_minus_one(self):
        term = RewardTerm("fid", 1, "fidelity", 1.0)
        s = circle_sample([0.0, 1.0, 2.0], radius=2.0)
        np.testing.assert_allclose(eval_reward_term(term, s), math.exp(-1.0), rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = RandomSource(5)
        frames = rng.gaussian(12).reshape(6, 2)
        s = ToySample(frames, 0)
        radii = np.sqrt((frames**2).sum(axis=1))
        expected = math.exp(-np.mean((radii - 1.0) ** 2) / FID.scale)
        np.testing.assert_allclose(eval_reward_term(FID, s), expected, rtol=1e-12)

    def test_strictly_decreasing_in_radial_residual(self):
        values = [
            eval_reward_term(FID, circle_sample([0.0, 0.5, 1.0], radius=r))
            for r in (1.0, 1.05, 1.1, 1.3, 1.8)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSmoothness:
    def test_constant_sequence_scores_one(self):
        s = ToySample(np.tile([0.3, -0.4], (5, 1)), 0)
        assert eval_reward_term(SMOOTH, s) == 1.0

    def test_linear_motion_scores_one(self):
        frames = np.linspace([0.0, 0.0], [1.0, 2.0], 6)
        assert eval_reward_term(SMOOTH, ToySample(frames, 0)) == 1.0

    def test_matches_direct_formula(self):
        rng = RandomSource(6)
        frames = rng.gaussian(10).reshape(5, 2)
        s = ToySample(frames, 0)
        second = frames[2:] - 2 * frames[1:-1] + frames[:-2]
        expected = math.exp(-np.mean((second**2).sum(axis=1)) / SMOOTH.scale)
        np.testing.assert_allclose(eval_reward_term(SMOOTH, s), expected, rtol=1e-12)

    def test_strictly_decreasing_in_curvature(self):
        base = np.linspace([0.0, 0.0], [1.0, 0.0], 7)
        values = []
        for bend in (0.0, 0.05, 0.1, 0.2, 0.4):
            frames = base.copy()
            frames[3, 1] += bend
            values.append(eval_reward_term(SMOOTH, ToySample(frames, 0)))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestAlignment:
    def test_exact_target_scores_one(self):
        target = 2.0 * math.pi * 3 / 8
        s = circle_sample([0.0, target], cond=3)
        assert eval_reward_term(ALIGN8, s) == 1.0

    def test_matches_direct_formula(self):
        s = circle_sample([0.0, 1.9], cond=2)
        err = wrapped_angle_error(1.9, 2.0 * math.pi * 2 / 8)
        expected = math.exp(-err * err / ALIGN8.scale)
        np.testing.assert_allclose(eval_reward_term(ALIGN8, s), expected, rtol=1e-12)

    def test_strictly_decreasing_in_angular_error(self):
        values = [
            eval_reward_term(ALIGN8, circle_sample([0.0, err], cond=0))
            for err in (0.0, 0.3, 1.0, 2.0, math.pi)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_origin_final_frame_scores_zero(self):
        frames = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert eval_reward_term(ALIGN8, ToySample(frames, 0)) == 0.0

    def test_wrapping(self):
        assert wrapped_angle_error(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
        assert wrapped_angle_error(-math.pi, math.pi) == pytest.approx(0.0, abs=1e-12)


class TestEvalGroup:
    def suite(self):
        return default_suite(num_classes=8)

    def test_identical_samples_give_constant_columns(self):
        s = circle_sample([0.0, 0.5, 1.0], cond=1)
        matrix = eval_group(self.suite(), *as_group([s] * 4))
        for j in range(matrix.num_terms):
            assert np.ptp(matrix.values[:, j]) == 0.0

    def test_single_term_matches_per_sample_eval(self):
        rng = RandomSource(7)
        samples = [ToySample(rng.gaussian(8).reshape(4, 2), 0) for _ in range(3)]
        matrix = eval_group([FID], *as_group(samples))
        expected = [eval_reward_term(FID, s) for s in samples]
        np.testing.assert_allclose(matrix.values[:, 0], expected, rtol=1e-12)

    def test_matches_elementwise_oracle(self):
        ds = ToyDataset(PolicyDims(frames=6, frame_dim=2, num_classes=8, embed_dim=2))
        frames, conds = ds.sample_batch(RandomSource(8), 5)
        samples = [ToySample(f, int(c)) for f, c in zip(frames, conds)]
        suite = self.suite()
        matrix = eval_group(suite, *as_group(samples))
        ordered = sorted(suite, key=lambda t: t.stage)
        for i, s in enumerate(samples):
            for j, term in enumerate(ordered):
                np.testing.assert_allclose(
                    matrix.values[i, j], eval_reward_term(term, s), rtol=1e-12
                )

    def test_permutation_equivariance(self):
        ds = ToyDataset(PolicyDims(frames=6, frame_dim=2, num_classes=8, embed_dim=2))
        frames, conds = ds.sample_batch(RandomSource(9), 6)
        samples = [ToySample(f, int(c)) for f, c in zip(frames, conds)]
        perm = RandomSource(10).permutation(6)
        m1 = eval_group(self.suite(), *as_group(samples))
        m2 = eval_group(self.suite(), *as_group([samples[i] for i in perm]))
        np.testing.assert_array_equal(m1.values[perm], m2.values)

    def test_degenerate_sample_flagged(self):
        ok = circle_sample([0.0, 0.5], cond=0)
        bad = ToySample(np.array([[1.0, 0.0], [0.0, 0.0]]), 0)
        matrix = eval_group(self.suite(), *as_group([ok, bad]))
        align_col = 2
        assert matrix.flags[1, align_col]
        assert matrix.values[1, align_col] == 0.0
        assert not matrix.flags[0].any()

    def test_group_too_small_rejected(self):
        with pytest.raises(DomainError):
            eval_group(self.suite(), *as_group([circle_sample([0.0, 0.5])]))


class TestSuiteValidation:
    def test_contiguous_stages_required(self):
        bad = [RewardTerm("a", 1, "fidelity", 0.1), RewardTerm("b", 3, "smoothness", 0.1)]
        with pytest.raises(DomainError):
            validate_suite(bad)

    def test_alignment_requires_classes(self):
        with pytest.raises(DomainError):
            RewardTerm("align", 1, "alignment", 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            RewardTerm("x", 1, "mystery", 0.5)

    def test_custom_term(self):
        term = RewardTerm("c", 1, "custom", 1.0, fn=lambda s: 0.25)
        s = circle_sample([0.0, 1.0])
        assert eval_reward_term(term, s) == 0.25

    def test_custom_term_out_of_range_flagged(self):
        term = RewardTerm("c", 1, "custom", 1.0, fn=lambda s: 1.5)
        s = circle_sample([0.0, 1.0])
        matrix = eval_group([term], *as_group([s, s]))
        assert matrix.flags.all()
        assert (matrix.values == 0.0).all()


class TestRangeInvariant:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_rewards_always_in_unit_interval(self, seed):
        rng = RandomSource(seed)
        frames = 2.0 * rng.gaussian(10).reshape(5, 2)
        s = ToySample(frames, int(rng.integers(0, 8)))
        for term in default_suite(num_classes=8):
            value = eval_reward_term(term, s)
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


def _oracle_fidelity(sample, scale):
    radii = np.linalg.norm(sample.frames, axis=1)
    return math.exp(-float(np.mean((radii - 1.0) ** 2)) / scale)


def _oracle_smoothness(sample, scale):
    f = sample.frames
    if len(f) < 3:
        return 1.0
    second = f[2:] - 2.0 * f[1:-1] + f[:-2]
    return math.exp(-float(np.mean(np.sum(second**2, axis=1))) / scale)


def _oracle_alignment(sample, term):
    final = sample.frames[-1]
    if float(np.linalg.norm(final)) < DEGENERATE_RADIUS:
        raise DomainError("final frame at the origin")
    target = 2.0 * math.pi * sample.condition / term.num_classes
    err = _oracle_wrapped(math.atan2(final[1], final[0]), target)
    return math.exp(-err * err / term.scale)


def _oracle_term(term, sample):
    if term.kind == "fidelity":
        return _oracle_fidelity(sample, term.scale)
    if term.kind == "smoothness":
        return _oracle_smoothness(sample, term.scale)
    if term.kind == "alignment":
        return _oracle_alignment(sample, term)
    value = float(term.fn(sample))
    if not 0.0 <= value <= 1.0 or not math.isfinite(value):
        raise DomainError("custom value outside [0, 1]")
    return value


def oracle_group(suite, samples):
    ordered = sorted(suite, key=lambda term: term.stage)
    values = np.zeros((len(samples), len(ordered)))
    flags = np.zeros(values.shape, dtype=bool)
    for i, sample in enumerate(samples):
        for j, term in enumerate(ordered):
            try:
                values[i, j] = _oracle_term(term, sample)
            except (DomainError, ShapeError):
                flags[i, j] = True
    return values, flags


CUSTOM_FNS = [
    lambda s: math.tanh(abs(s.frames[0, 0])),  # always in [0, 1]
    lambda s: float(np.sum(s.frames[-1] ** 2)),  # flagged above 1
    lambda s: float(s.frames[0, 0]),  # flagged below 0
]


class TestArrayScorer:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_sample_oracle(self, data):
        G = data.draw(st.integers(2, 70), label="G")
        T = data.draw(st.integers(2, 10), label="T")
        D = data.draw(st.sampled_from([2, 3]), label="D")
        rng = RandomSource(data.draw(st.integers(0, 2**32), label="seed"))
        scales = 10.0 ** (4.0 * rng.uniform(G) - 3.0)[:, None, None]
        frames = scales * rng.gaussian(G * T * D).reshape(G, T, D)
        origin = data.draw(st.lists(st.integers(0, G - 1), max_size=G // 2), label="origin")
        frames[origin, -1] = 0.0
        classes = data.draw(st.integers(1, 12), label="classes")
        if data.draw(st.booleans(), label="one condition"):
            conds = data.draw(st.integers(0, classes - 1), label="cond")
            per_row = [conds] * G
        else:
            conds = rng.integers(0, classes, size=G)
            per_row = conds.tolist()
        suite = default_suite(classes, {
            "fidelity": data.draw(st.floats(0.01, 2.0), label="fid scale"),
            "smoothness": data.draw(st.floats(0.01, 2.0), label="smooth scale"),
            "alignment": data.draw(st.floats(0.01, 2.0), label="align scale")})
        customs = data.draw(st.lists(st.sampled_from(range(len(CUSTOM_FNS))), max_size=3),
                            label="customs")
        suite += [RewardTerm(f"c{j}", 4 + j, "custom", 1.0, fn=CUSTOM_FNS[k])
                  for j, k in enumerate(customs)]
        suite = data.draw(st.permutations(suite), label="suite order")

        matrix = eval_group(suite, frames, conds)
        values, flags = oracle_group(suite, [ToySample(f, c) for f, c in zip(frames, per_row)])
        np.testing.assert_array_equal(matrix.values, values)
        np.testing.assert_array_equal(matrix.flags, flags)
        assert matrix.flags[origin, 2].all()

    def test_strided_view_scores_like_a_copy(self):
        states = RandomSource(11).gaussian(5 * 3 * 8).reshape(5, 3, 8)
        view = states[:, -1].reshape(5, 4, 2)
        assert not view.flags.c_contiguous and np.shares_memory(view, states)
        suite = default_suite(8)
        np.testing.assert_array_equal(eval_group(suite, view, 3).values,
                                      eval_group(suite, view.copy(), 3).values)

    def test_non_finite_frames_rejected(self):
        frames = np.zeros((3, 4, 2))
        frames[1, 2, 0] = np.nan
        with pytest.raises(DomainError):
            eval_group([FID], frames, 0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeError):
            eval_group([FID], np.zeros((3, 8)), 0)
        with pytest.raises(ShapeError):
            eval_group([FID], np.zeros((3, 1, 2)), 0)
        with pytest.raises(ShapeError):
            eval_group([FID], np.zeros((3, 4, 2)), [0, 1])
        align = RewardTerm("align", 1, "alignment", 0.5, num_classes=8)
        with pytest.raises(ShapeError):
            eval_group([align], np.ones((3, 4, 1)), 0)

    def test_samples_built_only_for_custom_terms(self, monkeypatch):
        built = []
        monkeypatch.setattr(rewards, "ToySample", lambda *a: built.append(1) or ToySample(*a))
        frames = RandomSource(12).gaussian(4 * 3 * 2).reshape(4, 3, 2)
        eval_group(default_suite(8), frames, 1)
        assert built == []
        custom = RewardTerm("c", 4, "custom", 1.0, fn=CUSTOM_FNS[0])
        eval_group(default_suite(8) + [custom], frames, 1)
        assert len(built) == 4
