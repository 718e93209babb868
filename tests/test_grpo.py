"""Trainer contracts: ratio and surrogate arithmetic, first-step identity
after reference refreshes, full-pipeline gradient fidelity against finite
differences, advantage detachment, and trace determinism."""

import io
import math

import numpy as np
import pytest
from helpers import rel_err_ok

from flowstage.curriculum import (
    CurriculumConfig,
    curriculum_step,
    normalize_advantages,
    smooth_curve,
)
from flowstage.errors import DomainError, ShapeError
from flowstage.flow_policy import (
    FlowPolicy,
    PolicyDims,
    SdeConfig,
    init_flow_policy,
    sde_sample,
)
from flowstage import flow_policy, grpo
from flowstage.grpo import (
    TrainConfig,
    surrogate_and_grads,
    surrogate_objective,
    train,
    train_step,
)
from flowstage.numerics import RandomSource, mlp_forward_batch, split_params
from flowstage.rewards import RewardTerm, default_suite, eval_group

TINY = PolicyDims(frames=2, frame_dim=1, num_classes=2, embed_dim=2)
PLANAR = PolicyDims(frames=3, frame_dim=2, num_classes=4, embed_dim=4)


def tiny_policy(seed=0):
    return init_flow_policy(TINY, hidden=(4,), rng=RandomSource(seed))


def tiny_trajectories(ref, count=4, seed=100, num_steps=2):
    cfg = SdeConfig(num_steps=num_steps, eta=0.5, t_min=0.2)
    noise = RandomSource(seed).gaussian_streams((), count, (num_steps + 1) * TINY.state_size)
    return sde_sample(ref, [i % TINY.num_classes for i in range(count)], cfg,
                      noise.reshape(count, num_steps + 1, -1))


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
    """The clamped ratio exp(new - old) as ``surrogate_and_grads`` forms it,
    with the recorded log-probs shifted so new - old is about ``shift``."""

    @staticmethod
    def ratios_and_grads(shift):
        ref = tiny_policy(35)
        rollout = tiny_trajectories(ref, count=4, seed=600, num_steps=2)
        rollout.log_probs -= shift
        adv = normalize_advantages(np.array([0.9, 0.1, 0.5, 0.3]))
        _, grads, ratios, _ = surrogate_and_grads(ref, rollout, adv, [0, 1], 0.2, 5.0)
        return ratios, grads

    def test_equal_logps_give_one(self):
        ratios, grads = self.ratios_and_grads(0.0)
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-9)
        assert grads.any()

    def test_log_two_gives_two(self):
        ratios, _ = self.ratios_and_grads(math.log(2))
        np.testing.assert_allclose(ratios, 2.0, rtol=1e-9)

    def test_upper_clamp_binds(self):
        # exactly the clamp, and no gradient where it binds, though the
        # negative-advantage rows are not clipped by the surrogate
        ratios, grads = self.ratios_and_grads(10.0)
        assert (ratios == 5.0).all()
        assert not grads.any()

    def test_lower_clamp_binds(self):
        ratios, grads = self.ratios_and_grads(-10.0)
        assert (ratios == 1.0 / 5.0).all()
        assert not grads.any()

    def test_non_finite_rejected(self):
        ref = tiny_policy(35)
        rollout = tiny_trajectories(ref, count=4, seed=600, num_steps=2)
        rollout.log_probs[1, 0] = np.nan
        with pytest.raises(DomainError):
            surrogate_and_grads(ref, rollout, np.ones(4), [0, 1], 0.2, 5.0)

    def test_eta_zero_rollout_rejected(self):
        # a deterministic rollout has no transition density to form a ratio from
        ref = tiny_policy(15)
        cfg = SdeConfig(num_steps=3, eta=0.0)
        noise = RandomSource(58).gaussian_streams((), 4, 4 * TINY.state_size)
        rollout = sde_sample(ref, 0, cfg, noise.reshape(4, 4, -1))
        assert rollout.log_probs is None
        with pytest.raises(DomainError):
            surrogate_and_grads(ref, rollout, np.ones(4), [0, 1], 0.2, 5.0)


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
        np.testing.assert_array_equal(policy.vector, new_policy.vector)
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
        # refresh steps take everything from the rollout and never call
        # eval_step; stale steps re-evaluate, and there the clip does its job
        done, reevaluated = [], []
        evaluate = grpo.eval_step

        def spy(policy, rows):
            reevaluated.append(len(done))  # the index of the step running
            return evaluate(policy, rows)

        monkeypatch.setattr(grpo, "eval_step", spy)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(12))
        cfg = small_train_config(num_steps=4, ref_refresh_interval=2, seed=17,
                                 learning_rate=5e-3)
        _, log = train(policy, cfg, step_callback=lambda s, p, rec: done.append(s))
        assert reevaluated == [1, 3]
        assert [rec.refresh for rec in log.records] == [True, False, True, False]
        for rec in log.records:
            if rec.refresh:
                assert rec.ratio_max_dev == 0.0
                assert rec.clip_fraction == 0.0
        assert any(rec.clip_fraction > 0.0 for rec in log.records if not rec.refresh)

    def test_stale_reference_is_left_as_it_sampled(self, monkeypatch):
        # step 0 refreshes (the reference is the policy itself), step 1
        # samples under that same, now stale, object
        rollouts = []
        sample = grpo.sde_sample

        def spy(ref, *args, **kwargs):
            rollouts.append((ref, sample(ref, *args, **kwargs)))
            return rollouts[-1][1]

        monkeypatch.setattr(grpo, "sde_sample", spy)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(14))
        before = policy.vector.copy()
        cfg = small_train_config(num_steps=2, ref_refresh_interval=2, seed=19,
                                 learning_rate=5e-3)
        trained, _ = train(policy, cfg)
        assert [ref is policy for ref, _ in rollouts] == [True, True]
        np.testing.assert_array_equal(policy.vector, before)
        assert not np.array_equal(trained.vector, before)
        rollout = rollouts[0][1]
        steps = sorted(rollout.kept)
        rows = rollout.transitions(steps)
        inputs = np.concatenate([rows.x, rows.t[:, None], policy.cond_emb[rows.cond]], axis=1)
        _, fresh = mlp_forward_batch(policy.net, inputs)
        for kept, now in zip(rollout.kept_activations(steps), fresh):
            np.testing.assert_array_equal(kept, now)

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
        np.testing.assert_array_equal(policy.vector, trained.vector)

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

        vector = ref.vector + 0.01 * RandomSource(77).gaussian(ref.vector.size)
        policy = FlowPolicy(ref.dims, ref.layer_sizes, vector)

        J, grads, _, _ = surrogate_and_grads(policy, trajs, advantages, subset,
                                             eps, clamp)

        def objective(test_vector):
            p = FlowPolicy(ref.dims, ref.layer_sizes, test_vector.copy())
            val, _, _, _ = surrogate_and_grads(p, trajs, advantages, subset,
                                               eps, clamp)
            return val

        assert objective(vector) == pytest.approx(J, rel=1e-12)
        from helpers import finite_difference

        fd = finite_difference(objective, vector.copy(), h=1e-6)
        ok = rel_err_ok(grads, fd, rtol=1e-3, atol=1e-8)
        passed, total = int(ok.sum()), ok.size
        assert passed / total >= 0.95

    def test_on_policy_gradient_matches_reevaluation(self, monkeypatch):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(34))
        cfg = SdeConfig(num_steps=6, eta=0.5)
        subset = [0, 2, 3, 5]
        noise = RandomSource(500).gaussian_streams((), 6, 7 * PLANAR.state_size)
        rollout = sde_sample(policy, 2, cfg, noise.reshape(6, 7, -1), keep=subset)
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
        arrays, arrays_re = (split_params(g, policy.layout) for g in (grads, grads_re))
        for name, b in arrays_re.items():
            assert np.linalg.norm(arrays[name] - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("seed, eta, t_min", [
        (41, 0.5, 0.04), (42, 1.0, 0.04), (43, 0.2, 0.3), (44, 2.0, 0.01), (45, 0.5, 0.5)])
    def test_on_policy_equals_reevaluation_bit_for_bit(self, seed, eta, t_min, monkeypatch):
        # at the default net size, reading the rollout's means, log-densities
        # and activations gives exactly what re-evaluating its transitions
        # gives when the forward pass runs in the sampler's G-row batches (a
        # 64-wide product over all G x T' rows at once sums in another order)
        dims, G = PolicyDims(), 16
        policy = init_flow_policy(dims, hidden=(64, 64), rng=RandomSource(seed))
        cfg = SdeConfig(num_steps=16, eta=eta, t_min=t_min)
        rng = RandomSource(seed + 100)
        subset = np.sort(rng.stream(2).permutation(16)[:10])
        noise = rng.gaussian_streams((1,), G, 17 * dims.state_size).reshape(G, 17, -1)
        adv = normalize_advantages(rng.stream(3).gaussian(G))
        kept = sde_sample(policy, 5, cfg, noise, keep=subset)
        bare = sde_sample(policy, 5, cfg, noise)
        assert bare.kept == {}
        forward = flow_policy.mlp_forward_batch

        def per_step_forward(net, inputs):
            parts = [forward(net, inputs[i:i + G])[1] for i in range(0, len(inputs), G)]
            acts = [np.concatenate(layer) for layer in zip(*parts)]
            return acts[-1], acts

        monkeypatch.setattr(flow_policy, "mlp_forward_batch", per_step_forward)
        on = surrogate_and_grads(policy, kept, adv, subset, 0.1, 5.0, ref_policy=policy)
        re = surrogate_and_grads(policy, bare, adv, subset, 0.1, 5.0,
                                 ref_policy=policy.copy())
        assert on[0] == re[0]
        for a, b in zip(on[1:], re[1:]):
            np.testing.assert_array_equal(a, b)
        assert (on[2] == 1.0).all()
        assert not on[3].any()

    def test_gradient_zero_when_all_clipped(self):
        ref = tiny_policy(32)
        trajs = tiny_trajectories(ref, count=2, seed=300, num_steps=2)
        adv = np.array([1.0, -1.0])
        # clip so tight that any ratio deviation selects the clipped branch
        policy = FlowPolicy(ref.dims, ref.layer_sizes, ref.vector + 0.05)
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

        frames = trajs.final_states().reshape(len(trajs), TINY.frames, TINY.frame_dim)
        suite_a = [RewardTerm("fid", 1, "fidelity", 0.05)]
        suite_b = [RewardTerm("fid", 1, "fidelity", 0.5)]
        cfg = CurriculumConfig(thresholds=(0.75,))
        adv_a = curriculum_step(eval_group(suite_a, frames, trajs.conditions), cfg).advantages
        adv_b = curriculum_step(eval_group(suite_b, frames, trajs.conditions), cfg).advantages
        assert not np.allclose(adv_a, adv_b)

        _, grads_a, _, _ = surrogate_and_grads(policy, trajs, adv_a, [0, 1], 0.2, 5.0)
        _, grads_b, _, _ = surrogate_and_grads(policy, trajs, adv_b, [0, 1], 0.2, 5.0)
        # bandwidths changed the gradient, but only through the advantages:
        # feeding the same advantage values back reproduces it bit for bit
        _, grads_b2, _, _ = surrogate_and_grads(policy, trajs, adv_b.copy(),
                                                [0, 1], 0.2, 5.0)
        assert not np.array_equal(grads_a, grads_b)
        np.testing.assert_array_equal(grads_b, grads_b2)


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
