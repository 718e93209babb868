"""Trainer contracts: ratio and surrogate arithmetic, first-step identity
after reference refreshes, full-pipeline gradient fidelity against finite
differences, advantage detachment, and trace determinism."""

import io
import math

import numpy as np
import pytest
from helpers import rel_err_ok

from flowstage.curriculum import CurriculumConfig, curriculum_step, normalize_advantages
from flowstage.errors import DomainError, ShapeError
from flowstage.flow_policy import (
    PolicyDims,
    SdeConfig,
    decode_state,
    init_flow_policy,
    sde_sample,
)
from flowstage import flow_policy, grpo
from flowstage.grpo import (
    TrainConfig,
    importance_ratio,
    smooth_curve,
    surrogate_and_grads,
    surrogate_objective,
    train,
    train_step,
)
from flowstage.numerics import RandomSource
from flowstage.rewards import RewardTerm, default_suite, eval_group

TINY = PolicyDims(frames=2, frame_dim=1, num_classes=2, embed_dim=2)
PLANAR = PolicyDims(frames=3, frame_dim=2, num_classes=4, embed_dim=4)


def tiny_policy(seed=0):
    return init_flow_policy(TINY, hidden=(4,), rng=RandomSource(seed))


def tiny_trajectories(ref, count=4, seed=100, num_steps=2):
    cfg = SdeConfig(num_steps=num_steps, eta=0.5, t_min=0.2)
    return sde_sample(ref, [i % TINY.num_classes for i in range(count)], cfg,
                      [RandomSource(seed).stream(i) for i in range(count)])


def small_train_config(**kw):
    defaults = dict(
        group_size=4,
        clip_eps=0.1,
        learning_rate=1e-3,
        num_steps=4,
        timestep_fraction=0.6,
        ratio_clamp_max=5.0,
        ref_refresh_interval=1,
        seed=7,
        sde=SdeConfig(num_steps=4, eta=0.5),
        curriculum=CurriculumConfig(thresholds=(0.75, 0.75, 0.75)),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestImportanceRatio:
    def test_equal_logps_give_one(self):
        assert importance_ratio(-3.2, -3.2, 5.0) == 1.0

    def test_log_two_gives_two(self):
        assert importance_ratio(math.log(2), 0.0, 5.0) == pytest.approx(2.0, rel=1e-12)

    def test_upper_clamp_binds(self):
        assert importance_ratio(10.0, 0.0, 5.0) == 5.0

    def test_lower_clamp_binds(self):
        assert importance_ratio(-10.0, 0.0, 5.0) == pytest.approx(0.2, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            importance_ratio(float("nan"), 0.0, 5.0)


class TestSurrogateObjective:
    def test_unit_ratios_zero_objective(self):
        adv = normalize_advantages(np.array([0.1, 0.6, 0.2, 0.9]))
        ratios = np.ones((4, 3))
        J, flags = surrogate_objective(ratios, adv, 0.2)
        assert J == pytest.approx(0.0, abs=1e-12)
        assert not flags.any()

    def test_positive_advantage_clip(self):
        J, flags = surrogate_objective(np.array([[1.5]]), np.array([1.0]), 0.2)
        assert J == pytest.approx(1.2, rel=1e-12)
        assert flags.all()

    def test_negative_advantage_clip(self):
        J, flags = surrogate_objective(np.array([[0.5]]), np.array([-1.0]), 0.2)
        assert J == pytest.approx(-0.8, rel=1e-12)
        assert flags.all()

    def test_matches_direct_reevaluation(self):
        rng = RandomSource(9)
        ratios = np.exp(0.5 * rng.gaussian(12).reshape(4, 3))
        adv = rng.gaussian(4)
        eps = 0.15
        J, flags = surrogate_objective(ratios, adv, eps)
        total = 0.0
        for i in range(4):
            for t in range(3):
                raw = ratios[i, t] * adv[i]
                clipped = min(max(ratios[i, t], 1 - eps), 1 + eps) * adv[i]
                total += min(raw, clipped)
                assert flags[i, t] == (clipped < raw)
        assert J == pytest.approx(total / 12.0, rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            surrogate_objective(np.ones((2, 2)), np.ones(3), 0.1)


class TestSmoothCurve:
    def test_window_one_is_identity(self):
        v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        np.testing.assert_array_equal(smooth_curve(v, 1), v)

    def test_constant_series_unchanged(self):
        v = np.full(7, 2.5)
        np.testing.assert_array_equal(smooth_curve(v, 3), v)

    def test_hand_case_with_edge_truncation(self):
        out = smooth_curve(np.array([0.0, 1.0, 2.0, 3.0]), 3)
        np.testing.assert_allclose(out, [0.5, 1.0, 2.0, 2.5], rtol=1e-12)

    def test_even_window(self):
        out = smooth_curve(np.array([0.0, 1.0, 2.0, 3.0]), 2)
        np.testing.assert_allclose(out, [0.5, 1.5, 2.5, 3.0], rtol=1e-12)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            smooth_curve(np.ones(3), 0)


class TestTrainStep:
    def test_zero_learning_rate_keeps_policy(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(1))
        cfg = small_train_config(learning_rate=0.0)
        new_policy, _, _, rec = train_step(policy, policy.copy(), cfg, RandomSource(3))
        for a, b in zip(policy.param_arrays(), new_policy.param_arrays()):
            np.testing.assert_array_equal(a, b)
        assert math.isfinite(rec.objective)

    def test_first_step_identity(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(2))
        cfg = small_train_config(num_steps=6, ref_refresh_interval=2, seed=11)
        _, log = train(policy, cfg)
        assert len(log) == 6
        for rec in log.records:
            if rec.refresh:
                assert rec.ratio_max_dev <= 1e-9
                assert rec.clip_fraction == 0.0
                assert abs(rec.objective) <= 1e-6

    def test_refresh_two_takes_both_paths(self, monkeypatch):
        # refresh steps reuse the rollout's activations; stale steps
        # re-evaluate, and there the clip does its job
        reevaluated = []
        evaluate = grpo.eval_step

        def spy(policy, rows, acts=None):
            reevaluated.append(acts is None)
            return evaluate(policy, rows, acts)

        monkeypatch.setattr(grpo, "eval_step", spy)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(12))
        cfg = small_train_config(num_steps=4, ref_refresh_interval=2, seed=17,
                                 learning_rate=5e-3)
        _, log = train(policy, cfg)
        assert reevaluated == [False, True, False, True]
        for rec in log.records:
            if rec.refresh:
                assert rec.ratio_max_dev == 0.0
                assert rec.clip_fraction == 0.0
        assert any(rec.clip_fraction > 0.0 for rec in log.records if not rec.refresh)

    def test_stale_reference_produces_nonunit_ratios(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(3))
        cfg = small_train_config(num_steps=6, ref_refresh_interval=3,
                                 learning_rate=5e-3, seed=13)
        _, log = train(policy, cfg)
        off_refresh = [r for r in log.records if not r.refresh]
        assert any(r.ratio_max_dev > 1e-9 for r in off_refresh)

    def test_static_stage_uses_one_hot_weights(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(4))
        cfg = small_train_config(static_stage=1, num_steps=2)
        _, log = train(policy, cfg)
        for rec in log.records:
            np.testing.assert_array_equal(rec.weights, [1.0, 0.0, 0.0])

    def test_determinism(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(5))
        cfg = small_train_config(num_steps=5, seed=21)
        _, log1 = train(policy.copy(), cfg)
        _, log2 = train(policy.copy(), cfg)
        buf1, buf2 = io.StringIO(), io.StringIO()
        log1.write_jsonl(buf1)
        log2.write_jsonl(buf2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_zero_steps(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(6))
        trained, log = train(policy, small_train_config(num_steps=0))
        assert len(log) == 0
        for a, b in zip(policy.param_arrays(), trained.param_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_csv_and_jsonl_emission(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(7))
        _, log = train(policy, small_train_config(num_steps=3))
        jsonl, csv_buf = io.StringIO(), io.StringIO()
        log.write_jsonl(jsonl)
        log.write_csv(csv_buf)
        assert len(jsonl.getvalue().splitlines()) == 3
        lines = csv_buf.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("step,refresh,condition,objective")


class TestGradientFidelity:
    def test_full_pipeline_matches_finite_differences(self):
        ref = tiny_policy(31)
        trajs = tiny_trajectories(ref, count=4, seed=200, num_steps=2)
        advantages = normalize_advantages(np.array([0.9, 0.1, 0.5, 0.3]))
        subset = [0, 1]
        eps, clamp = 0.2, 5.0

        policy = ref.copy()
        bump = RandomSource(77)
        arrays = [a + 0.01 * bump.gaussian(a.size).reshape(a.shape)
                  for a in policy.param_arrays()]
        policy = policy.with_param_arrays(arrays)

        J, grads, _, _ = surrogate_and_grads(policy, trajs, advantages, subset,
                                             eps, clamp)

        def objective(test_arrays):
            p = policy.with_param_arrays([a.copy() for a in test_arrays])
            val, _, _, _ = surrogate_and_grads(p, trajs, advantages, subset,
                                               eps, clamp)
            return val

        assert objective(arrays) == pytest.approx(J, rel=1e-12)
        from helpers import finite_difference

        fd = finite_difference(objective, [a.copy() for a in arrays], h=1e-6)
        total, passed = 0, 0
        for analytic, numeric in zip(grads, fd):
            ok = rel_err_ok(analytic, numeric, rtol=1e-3, atol=1e-8)
            passed += int(ok.sum())
            total += ok.size
        assert passed / total >= 0.95

    def test_on_policy_gradient_matches_reevaluation(self, monkeypatch):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(34))
        cfg = SdeConfig(num_steps=6, eta=0.5)
        subset = [0, 2, 3, 5]
        streams = [RandomSource(500).stream(i) for i in range(6)]
        rollout = sde_sample(policy, 2, cfg, streams, keep=subset)
        adv = normalize_advantages(np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2]))

        J_re, grads_re, ratios_re, _ = surrogate_and_grads(
            policy, rollout, adv, subset, 0.2, 5.0)
        forwards = []
        forward = flow_policy.mlp_forward_batch
        monkeypatch.setattr(flow_policy, "mlp_forward_batch",
                            lambda *a: forwards.append(1) or forward(*a))
        J, grads, ratios, flags = surrogate_and_grads(
            policy, rollout, adv, subset, 0.2, 5.0, ref_policy=policy)
        assert forwards == []
        assert (ratios == 1.0).all()
        assert flags.mean() == 0.0
        assert J == pytest.approx(J_re, abs=1e-12)
        np.testing.assert_allclose(ratios_re, 1.0, rtol=0, atol=1e-12)
        for a, b in zip(grads, grads_re):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    def test_gradient_zero_when_all_clipped(self):
        ref = tiny_policy(32)
        trajs = tiny_trajectories(ref, count=2, seed=300, num_steps=2)
        adv = np.array([1.0, -1.0])
        # clip so tight that any ratio deviation selects the clipped branch
        policy = ref.copy()
        arrays = [a + 0.05 for a in policy.param_arrays()]
        policy = policy.with_param_arrays(arrays)
        _, grads, ratios, flags = surrogate_and_grads(
            policy, trajs, adv, [0, 1], 1e-12, 5.0
        )
        for (i, t), flagged in np.ndenumerate(flags):
            if not flagged:
                # unflagged elements moved ratio the pessimistic way and were
                # not clipped; they still carry gradient
                assert ratios[i, t] != 1.0

    def test_advantages_consumed_as_constants(self):
        ref = tiny_policy(33)
        trajs = tiny_trajectories(ref, count=4, seed=400, num_steps=2)
        policy = ref.copy()
        policy.net.weights[0][0, 0] += 0.02

        dims = TINY
        samples = [decode_state(t.final_state(), dims, t.condition) for t in trajs]
        suite_a = [RewardTerm("fid", 1, "fidelity", 0.05)]
        suite_b = [RewardTerm("fid", 1, "fidelity", 0.5)]
        cfg = CurriculumConfig(thresholds=(0.75,))
        adv_a = curriculum_step(eval_group(suite_a, samples), cfg).advantages
        adv_b = curriculum_step(eval_group(suite_b, samples), cfg).advantages
        assert not np.allclose(adv_a, adv_b)

        _, grads_a, _, _ = surrogate_and_grads(policy, trajs, adv_a, [0, 1], 0.2, 5.0)
        _, grads_b, _, _ = surrogate_and_grads(policy, trajs, adv_b, [0, 1], 0.2, 5.0)
        # bandwidths changed the gradient, but only through the advantages:
        # feeding the same advantage values back reproduces it bit for bit
        _, grads_b2, _, _ = surrogate_and_grads(policy, trajs, adv_b.copy(),
                                                [0, 1], 0.2, 5.0)
        assert any(
            not np.array_equal(a, b) for a, b in zip(grads_a, grads_b)
        )
        for a, b in zip(grads_b, grads_b2):
            np.testing.assert_array_equal(a, b)


class TestConfigValidation:
    def test_group_size(self):
        with pytest.raises(DomainError):
            small_train_config(group_size=1)

    def test_clip_eps(self):
        with pytest.raises(DomainError):
            small_train_config(clip_eps=0.0)

    def test_ratio_clamp(self):
        with pytest.raises(DomainError):
            small_train_config(ratio_clamp_max=1.0)

    def test_timestep_fraction(self):
        with pytest.raises(DomainError):
            small_train_config(timestep_fraction=0.0)

    def test_suite_stage_bounds(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(8))
        cfg = small_train_config(static_stage=9)
        with pytest.raises(DomainError):
            train_step(policy, policy.copy(), cfg, RandomSource(0))

    def test_timestep_subset_size(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(9))
        cfg = small_train_config(timestep_fraction=0.6,
                                 sde=SdeConfig(num_steps=5, eta=0.5))
        _, _, _, rec = train_step(policy, policy.copy(), cfg, RandomSource(1))
        assert math.isfinite(rec.objective)  # ceil(0.6 * 5) = 3 steps selected
