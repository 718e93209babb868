"""Mixing-mechanism contracts: Hoyer sparsity, gate scores, softmax
weights, mixture, advantage normalization, the composed step, and
threshold calibration."""

import math

import numpy as np
import pytest
from helpers import philox
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage.curriculum import (
    CurriculumConfig,
    calibrate_thresholds,
    curriculum_step,
    group_means,
    hoyer,
    mixed_reward,
    normalize_advantages,
    sigmoid,
    stage_weights,
    static_step,
    transition,
)
from flowstage.errors import DomainError, ShapeError
from flowstage.rewards import RewardMatrix


def matrix_of(values):
    values = np.asarray(values, dtype=np.float64)
    return RewardMatrix(values, np.zeros(values.shape, dtype=bool))


class TestHoyer:
    def test_constant_vector_is_zero(self):
        assert hoyer(np.full(6, 0.37)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_is_one(self):
        v = np.zeros(8)
        v[3] = 2.5
        assert hoyer(v) == pytest.approx(1.0, abs=1e-12)

    def test_hand_case_three_one(self):
        expected = (math.sqrt(2) - 4.0 / math.sqrt(10)) / (math.sqrt(2) - 1.0)
        assert hoyer(np.array([3.0, 1.0])) == pytest.approx(expected, abs=1e-12)
        assert hoyer(np.array([3.0, 1.0])) == pytest.approx(0.3604, abs=5e-5)

    def test_all_zero_maps_to_zero(self):
        assert hoyer(np.zeros(5)) == 0.0

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            hoyer(np.array([0.5, -0.1]))

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            hoyer(np.array([1.0]))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=20)
    )
    def test_bounds(self, entries):
        value = hoyer(np.array(entries))
        assert 0.0 <= value <= 1.0

    def test_scale_invariance(self):
        rng = philox(3)
        r = rng.random(10)
        np.testing.assert_allclose(hoyer(r), hoyer(7.3 * r), atol=1e-12)


class TestGroupMeans:
    def test_constant_column(self):
        m = matrix_of(np.full((4, 2), 0.6))
        np.testing.assert_allclose(group_means(m), [0.6, 0.6], rtol=1e-12)

    def test_simple_column(self):
        m = matrix_of(np.array([[1.0], [2.0], [3.0]]) / 3.0)
        np.testing.assert_allclose(group_means(m), [2.0 / 3.0], rtol=1e-12)

    def test_matches_naive_summation(self):
        rng = philox(4)
        values = rng.random(12).reshape(4, 3)
        m = matrix_of(values)
        naive = np.array(
            [sum(values[i][j] for i in range(4)) / 4.0 for j in range(3)]
        )
        np.testing.assert_allclose(group_means(m), naive, rtol=1e-12)


class TestTransition:
    def cfg(self, beta=1.0, thresholds=(0.75, 0.75, 0.75)):
        return CurriculumConfig(alpha=8.0, beta=beta, thresholds=thresholds)

    def test_boundary_half_at_threshold(self):
        means = np.array([0.75, 0.2, 0.1])
        sparsities = np.array([0.3, 0.4, 0.5])
        g = transition(1, means, sparsities, self.cfg(beta=0.0))
        assert g == pytest.approx(0.5, abs=1e-12)

    def test_hand_case(self):
        # sigmoid(0.8 - 0.75) + beta * (S_own - S_prev)
        #   = sigmoid(0.05) + 1.0 * (0.2 - 0.5) = 0.51250 - 0.3
        means = np.array([0.7, 0.8])
        sparsities = np.array([0.5, 0.2])
        g = transition(2, means, sparsities, self.cfg(thresholds=(0.75, 0.75)))
        assert g == pytest.approx(sigmoid(0.05) - 0.3, abs=1e-12)
        assert g == pytest.approx(0.2125, abs=1e-4)

    def test_beta_zero_ignores_sparsities(self):
        means = np.array([0.6, 0.7])
        cfg = self.cfg(beta=0.0, thresholds=(0.5, 0.5))
        for s in (np.array([0.0, 0.0]), np.array([0.9, 0.1]), np.array([0.2, 0.8])):
            assert transition(2, means, s, cfg) == pytest.approx(
                sigmoid(0.2), abs=1e-12
            )

    def test_first_stage_uses_zero_predecessor(self):
        means = np.array([0.5])
        sparsities = np.array([0.4])
        g = transition(1, means, sparsities, self.cfg(thresholds=(0.5,)))
        assert g == pytest.approx(0.5 + 0.4, abs=1e-12)

    def test_out_of_range_stage(self):
        with pytest.raises(DomainError):
            transition(3, np.array([0.5, 0.5]), np.zeros(2), self.cfg())


class TestStageWeights:
    def test_alpha_zero_uniform(self):
        w = stage_weights(np.array([3.0, -1.0, 0.5]), 0.0)
        np.testing.assert_allclose(w, np.full(3, 1.0 / 3.0), rtol=1e-12)

    def test_hand_softmax(self):
        w = stage_weights(np.array([1.0, 0.0]), 1.0)
        np.testing.assert_allclose(w, [0.7311, 0.2689], atol=5e-5)

    def test_shift_invariance(self):
        g = np.array([0.2, 0.9, -0.3])
        np.testing.assert_allclose(
            stage_weights(g, 4.0), stage_weights(g + 17.0, 4.0), rtol=1e-12
        )

    def test_overflow_safety(self):
        w = stage_weights(np.array([1e6, 0.0]), 10.0)
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=32.0),
    )
    def test_simplex(self, g, alpha):
        w = stage_weights(np.array(g), alpha)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w >= 0.0).all() and (w <= 1.0).all()


class TestMixedReward:
    def test_one_hot_selects_column(self):
        rng = philox(5)
        m = matrix_of(rng.random(12).reshape(4, 3))
        w = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(mixed_reward(m, w), m.values[:, 1])

    def test_uniform_two_terms(self):
        m = matrix_of(np.array([[0.2, 0.8], [0.4, 0.6]]))
        np.testing.assert_allclose(mixed_reward(m, [0.5, 0.5]), [0.5, 0.5], rtol=1e-12)

    def test_matches_naive_double_loop(self):
        rng = philox(6)
        values = rng.random(15).reshape(5, 3)
        w = np.array([0.2, 0.5, 0.3])
        naive = [
            sum(w[j] * values[i, j] for j in range(3)) for i in range(5)
        ]
        np.testing.assert_allclose(mixed_reward(matrix_of(values), w), naive, rtol=1e-12)

    def test_simplex_violation_rejected(self):
        m = matrix_of(np.full((2, 2), 0.5))
        with pytest.raises(DomainError):
            mixed_reward(m, np.array([0.6, 0.6]))
        with pytest.raises(ShapeError):
            mixed_reward(m, np.array([1.0]))


class TestAdvantages:
    def test_constant_group_is_zero(self):
        a = normalize_advantages(np.full(6, 0.42))
        np.testing.assert_allclose(a, np.zeros(6), atol=1e-9)

    def test_hand_case(self):
        a = normalize_advantages(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(a, [-1.2247, 0.0, 1.2247], atol=5e-5)

    def test_mean_and_std_contract(self):
        rng = philox(7)
        a = normalize_advantages(rng.random(16))
        assert a.mean() == pytest.approx(0.0, abs=1e-9)
        assert math.sqrt(np.mean(a**2)) == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.integers(min_value=0, max_value=1000),
    )
    def test_positive_affine_invariance(self, a, b, seed):
        # the 1e-8 std floor perturbs tiny-scale transforms slightly, so the
        # property tolerance is looser than the nominal-scale 1e-6 contract
        rng = philox(seed)
        r = rng.random(8)
        np.testing.assert_allclose(
            normalize_advantages(r), normalize_advantages(a * r + b),
            rtol=1e-4, atol=1e-6,
        )

    def test_affine_invariance_nominal_scales(self):
        rng = philox(12)
        r = rng.random(16)
        for a, b in ((2.0, 0.3), (0.5, -1.0), (7.0, 4.0)):
            np.testing.assert_allclose(
                normalize_advantages(r), normalize_advantages(a * r + b), atol=1e-6
            )


class TestCurriculumStep:
    def test_single_term(self):
        rng = philox(8)
        m = matrix_of(rng.random(5).reshape(5, 1))
        state = curriculum_step(m, CurriculumConfig(thresholds=(0.5,)))
        np.testing.assert_array_equal(state.weights, [1.0])
        np.testing.assert_allclose(
            state.advantages, normalize_advantages(m.values[:, 0]), rtol=1e-12
        )

    def test_identical_columns(self):
        rng = philox(9)
        col = rng.random(6)
        m = matrix_of(np.stack([col, col, col], axis=1))
        cfg = CurriculumConfig(alpha=8.0, thresholds=(0.75, 0.75, 0.75))
        state = curriculum_step(m, cfg)
        # stages 2..K see the same sparsity difference, stage 1 sees S_0 = 0;
        # advantages are identical for any alpha because the columns are
        np.testing.assert_allclose(
            state.advantages, normalize_advantages(col), rtol=1e-12
        )
        assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_composed_oracle(self):
        rng = philox(10)
        values = rng.random(48).reshape(16, 3)
        m = matrix_of(values)
        cfg = CurriculumConfig(alpha=8.0, beta=1.0, thresholds=(0.75, 0.75, 0.75))
        state = curriculum_step(m, cfg)

        means = group_means(m)
        sparsities = np.array([hoyer(values[:, j]) for j in range(3)])
        gates = np.array([transition(j, means, sparsities, cfg) for j in (1, 2, 3)])
        weights = stage_weights(gates, cfg.alpha)
        mixed = mixed_reward(m, weights)
        advantages = normalize_advantages(mixed)

        np.testing.assert_allclose(state.group_means, means, rtol=1e-12)
        np.testing.assert_allclose(state.sparsities, sparsities, rtol=1e-12)
        np.testing.assert_allclose(state.transitions, gates, rtol=1e-12)
        np.testing.assert_allclose(state.weights, weights, rtol=1e-12)
        np.testing.assert_allclose(state.mixed, mixed, rtol=1e-12)
        np.testing.assert_allclose(state.advantages, advantages, rtol=1e-12)

    def test_weights_always_on_simplex(self):
        for seed in range(20):
            rng = philox(seed)
            m = matrix_of(rng.random(32).reshape(8, 4))
            cfg = CurriculumConfig(alpha=float(1 + seed), beta=1.0,
                                   thresholds=(0.7, 0.7, 0.7, 0.7))
            state = curriculum_step(m, cfg)
            assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (state.weights >= 0.0).all()

    def test_ema_mode_blends_weights(self):
        rng = philox(11)
        m1 = matrix_of(rng.random(8).reshape(4, 2))
        m2 = matrix_of(rng.random(8).reshape(4, 2))
        cfg_pg = CurriculumConfig(thresholds=(0.7, 0.7))
        cfg_ema = CurriculumConfig(thresholds=(0.7, 0.7), weight_mode="ema",
                                   ema_decay=0.9)
        s1 = curriculum_step(m1, cfg_ema)
        s2 = curriculum_step(m2, cfg_ema, prior_state=s1)
        fresh = curriculum_step(m2, cfg_pg)
        blended = 0.9 * s1.weights + 0.1 * fresh.weights
        np.testing.assert_allclose(s2.weights, blended / blended.sum(), rtol=1e-12)

    def test_more_terms_than_thresholds_rejected(self):
        m = matrix_of(np.full((3, 2), 0.5))
        with pytest.raises(DomainError):
            curriculum_step(m, CurriculumConfig(thresholds=(0.7,)))


class TestStaticStep:
    def test_one_hot_mixture_is_the_stage_column(self):
        # rewards are finite and >= 0, so values @ one_hot adds only exact
        # zeros to the column; the statistics are curriculum_step's
        values = philox(12).random(24).reshape(8, 3)
        values[:, 1] = 0.0
        m = matrix_of(values)
        full = curriculum_step(m, CurriculumConfig())
        for stage in (1, 2, 3):
            state = static_step(m, stage)
            np.testing.assert_array_equal(state.mixed, values[:, stage - 1])
            np.testing.assert_array_equal(state.weights, np.eye(3)[stage - 1])
            np.testing.assert_array_equal(state.transitions, np.zeros(3))
            np.testing.assert_array_equal(state.group_means, full.group_means)
            np.testing.assert_array_equal(state.sparsities, full.sparsities)
            np.testing.assert_array_equal(state.advantages,
                                          normalize_advantages(values[:, stage - 1]))

    @pytest.mark.parametrize("stage", [0, 4])
    def test_stage_outside_the_terms_rejected(self, stage):
        with pytest.raises(DomainError):
            static_step(matrix_of(np.full((3, 3), 0.5)), stage)


class TestCurriculumMonotonicity:
    """Weight responses to the group statistics, checked on grids."""

    CFG = CurriculumConfig(alpha=8.0, beta=1.0, thresholds=(0.75, 0.75, 0.75))

    def weights_for(self, means, sparsities, cfg=None):
        cfg = cfg or self.CFG
        gates = np.array(
            [transition(j, means, sparsities, cfg) for j in (1, 2, 3)]
        )
        return stage_weights(gates, cfg.alpha)

    def test_weight_nondecreasing_in_own_mean_beta_zero(self):
        cfg = CurriculumConfig(alpha=8.0, beta=0.0, thresholds=(0.75, 0.75, 0.75))
        sparsities = np.array([0.3, 0.3, 0.3])
        prev = -1.0
        for mean in np.linspace(0.1, 0.99, 12):
            w = self.weights_for(np.array([mean, 0.5, 0.4]), sparsities, cfg)
            assert w[0] >= prev - 1e-12
            prev = w[0]

    def test_weight_nondecreasing_in_own_sparsity(self):
        means = np.array([0.5, 0.5, 0.5])
        prev = -1.0
        for s in np.linspace(0.0, 1.0, 12):
            w = self.weights_for(means, np.array([0.3, s, 0.3]))
            assert w[1] >= prev - 1e-12
            prev = w[1]

    def test_weight_nonincreasing_in_predecessor_sparsity(self):
        means = np.array([0.5, 0.5, 0.5])
        prev = 2.0
        for s in np.linspace(0.0, 1.0, 12):
            w = self.weights_for(means, np.array([s, 0.3, 0.3]))
            assert w[1] <= prev + 1e-12
            prev = w[1]

    def test_saturation_shifts_weight_to_successor(self):
        # replacing column j by a near-constant high column (mean above the
        # gate, sparsity collapsed) must raise g_{j+1} - g_j
        cfg = self.CFG
        unsat_means = np.array([0.5, 0.3, 0.2])
        unsat_sp = np.array([0.15, 0.25, 0.2])
        sat_means = np.array([0.95, 0.3, 0.2])
        sat_sp = np.array([0.001, 0.25, 0.2])

        def gap(means, sp):
            g = [transition(j, means, sp, cfg) for j in (1, 2, 3)]
            return g[1] - g[0]

        assert gap(sat_means, sat_sp) > gap(unsat_means, unsat_sp)


class TestCalibration:
    def test_flat_curve_keeps_start_with_warning(self):
        taus, warnings = calibrate_thresholds([[0.5] * 10], smooth_window=3)
        np.testing.assert_allclose(taus, [0.5], rtol=1e-12)
        assert len(warnings) == 1

    def test_hand_rule(self):
        curve = np.linspace(0.4, 0.8, 50)
        taus, warnings = calibrate_thresholds([curve], smooth_window=1)
        np.testing.assert_allclose(taus, [0.4 + 0.7 * 0.4], rtol=1e-12)
        assert warnings == []

    def test_uses_smoothed_endpoints(self):
        # raw endpoints 0.0 / 1.0, but window-3 smoothing averages the edges
        curve = np.array([0.0, 0.4, 0.4, 0.4, 1.0])
        taus, _ = calibrate_thresholds([curve], smooth_window=3)
        start, end = 0.2, 0.7
        np.testing.assert_allclose(taus, [start + 0.7 * (end - start)], rtol=1e-12)

    def test_declining_curve_warns(self):
        taus, warnings = calibrate_thresholds([np.linspace(0.8, 0.4, 20)],
                                              smooth_window=1)
        np.testing.assert_allclose(taus, [0.8], rtol=1e-12)
        assert "did not improve" in warnings[0]

    def test_multiple_stages(self):
        curves = [np.linspace(0.3, 0.9, 30), np.linspace(0.2, 0.6, 30)]
        taus, warnings = calibrate_thresholds(curves, smooth_window=1)
        np.testing.assert_allclose(taus, [0.3 + 0.7 * 0.6, 0.2 + 0.7 * 0.4], rtol=1e-12)
        assert warnings == []

    def test_empty_curve_rejected(self):
        with pytest.raises(DomainError):
            calibrate_thresholds([[]], smooth_window=1)


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            CurriculumConfig(alpha=0.0)

    def test_bad_ema_decay(self):
        with pytest.raises(DomainError):
            CurriculumConfig(weight_mode="ema", ema_decay=1.5)

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            CurriculumConfig(weight_mode="sometimes")
