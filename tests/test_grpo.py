"""Trainer contracts: ratio and surrogate arithmetic, first-step identity
after reference refreshes, full-pipeline gradient fidelity against finite
differences, advantage detachment, and trace determinism."""

import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    copy_policy,
    drain,
    finite_difference,
    gaussian_block,
    kept_by_step,
    late_overflow,
    philox,
    rel_err_ok,
    row_major_backprop,
    row_major_eval,
    row_major_transitions,
)

from flowstage.curriculum import (
    CurriculumConfig,
    curriculum_step,
    normalize_advantages,
    smooth_curve,
)
from flowstage.errors import DomainError, RolloutError, ShapeError
from flowstage.flow_policy import (
    FlowPolicy,
    PolicyDims,
    SdeConfig,
    _policy_layout,
    init_flow_policy,
    sde_sample,
)
from flowstage import cli, flow_policy, grpo
from flowstage.grpo import (
    GroupStreams,
    TrainConfig,
    surrogate_and_grads,
    surrogate_objective,
    train,
    train_step,
)
from flowstage.numerics import RandomSource, mlp_forward_batch, split_params
from flowstage.rewards import RewardSuite, RewardTerm, default_suite, eval_group

TINY = PolicyDims(frames=2, frame_dim=1, num_classes=2, embed_dim=2)
PLANAR = PolicyDims(frames=3, frame_dim=2, num_classes=4, embed_dim=4)


def tiny_policy(seed=0):
    return init_flow_policy(TINY, hidden=(4,), rng=RandomSource(seed))


def tiny_trajectories(ref, count=4, seed=100, num_steps=2):
    """A rollout that keeps every step, so a gradient is taken at all of them."""
    cfg = SdeConfig(num_steps=num_steps, eta=0.5, t_min=0.2)
    noise = gaussian_block(RandomSource(seed), (), count, (num_steps + 1) * TINY.state_size)
    return sde_sample(ref, [i % TINY.num_classes for i in range(count)], cfg,
                      noise.reshape(count, num_steps + 1, -1), keep=range(num_steps))


def group_streams(cfg, seed, count=1, dims=PLANAR):
    """The draws of the first ``count`` steps of a run of ``cfg`` at ``seed``."""
    return GroupStreams(RandomSource(seed), count, dims, cfg.group_size, cfg.sde.num_steps)


def jsonl(records):
    """The trainlog.jsonl lines of ``records``."""
    return [json.dumps(rec, sort_keys=True) for rec in records]


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
        suite=default_suite(PLANAR.num_classes),
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
        _, grads, ratios, _ = surrogate_and_grads(ref, rollout, adv, 0.2, 5.0)
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
            surrogate_and_grads(ref, rollout, np.ones(4), 0.2, 5.0)

    def test_eta_zero_rollout_rejected(self):
        # a deterministic rollout has no transition density to form a ratio from
        ref = tiny_policy(15)
        cfg = SdeConfig(num_steps=3, eta=0.0)
        noise = gaussian_block(RandomSource(58), (), 4, 4 * TINY.state_size)
        rollout = sde_sample(ref, 0, cfg, noise.reshape(4, 4, -1), keep=[0, 1])
        assert rollout.log_probs is None
        with pytest.raises(DomainError):
            surrogate_and_grads(ref, rollout, np.ones(4), 0.2, 5.0)


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
        rng = philox(9)
        ratios = np.exp(0.5 * rng.standard_normal(12).reshape(4, 3))
        adv = rng.standard_normal(4)
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


class TestGroupStreams:
    def test_out_of_order_draws_equal_numpy_streams(self):
        # group 5 before group 2, subsets drawn in between: every group is
        # numpy's own stream (stream id,) jumped k times, drawn in the
        # documented order (condition, noise block, subset), whatever came
        # before
        seed, G, K, kept = 9001, 4, 6, 3
        streams = GroupStreams(RandomSource(seed), 8, PLANAR, G, K)
        groups, subsets = {}, {}
        groups[5] = streams.group(5)
        *groups[3], subsets[3] = streams.group(3, kept)
        groups[2] = streams.group(2)
        *groups[6], subsets[6] = streams.group(6, kept)
        *_, subsets[2] = streams.group(2, kept)
        for k, (cond, noise) in groups.items():
            expected = philox(seed, grpo._STREAM_GROUPS, jumps=k)
            assert cond == expected.integers(0, PLANAR.num_classes)
            assert noise.shape == (G, K + 1, PLANAR.state_size)
            np.testing.assert_array_equal(noise, expected.standard_normal(noise.shape))
        for k, subset in subsets.items():
            expected = philox(seed, grpo._STREAM_GROUPS, jumps=k)
            expected.integers(0, PLANAR.num_classes)
            expected.standard_normal((G, K + 1, PLANAR.state_size))
            np.testing.assert_array_equal(subset, np.sort(expected.permutation(K)[:kept]))

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_a_trajectorys_noise_does_not_depend_on_the_group_size(self, k):
        # the first 16 rows of a 64-wide group are the 16-wide group, bit
        # for bit, and so is the condition
        narrow = GroupStreams(RandomSource(11), 8, PLANAR, 16, 16).group(k)
        wide = GroupStreams(RandomSource(11), 8, PLANAR, 64, 16).group(k)
        assert wide[0] == narrow[0]
        np.testing.assert_array_equal(wide[1][:16], narrow[1])

    @pytest.mark.parametrize("k", [-1, 3])
    def test_group_outside_the_run_rejected(self, k):
        streams = GroupStreams(RandomSource(1), 3, PLANAR, 4, 5)
        with pytest.raises(DomainError):
            streams.group(k)
        with pytest.raises(DomainError):
            streams.group(k, 2)

    def test_streams_take_constant_memory(self):
        # a run of 10**9 groups at G = 64 keeps one key: building its
        # streams allocates no table, and neither does drawing a late group
        tracemalloc.start()
        try:
            streams = GroupStreams(RandomSource(5), 10**9, PLANAR, 64, 16)
            built, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cond, noise = streams.group(10**9 - 1)
            _, drawing = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built < 16 * 1024
        assert drawing < 2 * noise.nbytes
        assert cond == philox(5, grpo._STREAM_GROUPS, jumps=10**9 - 1).integers(
            0, PLANAR.num_classes)

    @pytest.mark.parametrize("dims, group_size, num_steps",
                             [(TINY, 4, 4), (PLANAR, 5, 4), (PLANAR, 4, 3)])
    def test_train_step_refuses_streams_of_another_run(self, dims, group_size, num_steps):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(1))
        cfg = small_train_config()
        streams = GroupStreams(RandomSource(0), 1, dims, group_size, num_steps)
        with pytest.raises(ShapeError):
            train_step(policy, policy, cfg, streams)


class TestTrainStep:
    def test_zero_learning_rate_keeps_policy(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(1))
        cfg = small_train_config(learning_rate=0.0)
        new_policy, _, _, rec = train_step(policy, copy_policy(policy), cfg, group_streams(cfg, 3))
        np.testing.assert_array_equal(policy.vector, new_policy.vector)
        assert math.isfinite(rec["objective"])

    def test_first_step_identity(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(2))
        cfg = small_train_config(num_steps=6, ref_refresh_interval=2, seed=11)
        _, log = drain(train(policy, cfg), policy)
        assert len(log) == 6
        for rec in log:
            if rec["refresh"]:
                assert rec["ratio_max_dev"] <= 1e-9
                assert rec["clip_fraction"] == 0.0
                assert abs(rec["objective"]) <= 1e-6

    def test_refresh_two_takes_both_paths(self, monkeypatch):
        # refresh steps take everything from the rollout and never call
        # eval_step; stale steps re-evaluate, and there the clip does its
        # job: at a clip_eps this small, any stale ratio off 1 on its
        # advantage's side binds, so the test holds whatever was drawn
        done, reevaluated = [], []
        evaluate = grpo.eval_step

        def spy(policy, rollout):
            reevaluated.append(len(done))  # the index of the step running
            return evaluate(policy, rollout)

        monkeypatch.setattr(grpo, "eval_step", spy)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(12))
        cfg = small_train_config(num_steps=4, ref_refresh_interval=2, seed=17,
                                 learning_rate=5e-3, clip_eps=1e-9)
        log = []
        for s, _, rec in train(policy, cfg):
            done.append(s)
            log.append(rec)
        assert reevaluated == [1, 3]
        assert [rec["refresh"] for rec in log] == [True, False, True, False]
        for rec in log:
            if rec["refresh"]:
                assert rec["ratio_max_dev"] == 0.0
                assert rec["clip_fraction"] == 0.0
        assert any(rec["clip_fraction"] > 0.0 for rec in log if not rec["refresh"])

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
        trained, _ = drain(train(policy, cfg), policy)
        assert [ref is policy for ref, _ in rollouts] == [True, True]
        np.testing.assert_array_equal(policy.vector, before)
        assert not np.array_equal(trained.vector, before)
        rollout = rollouts[0][1]
        steps = sorted(kept_by_step(rollout))
        rows = row_major_transitions(rollout, steps)
        inputs = np.concatenate([rows.x, rows.t[:, None], policy.cond_emb[rows.cond]], axis=1)
        _, fresh = mlp_forward_batch(policy.net, inputs)
        for kept, now in zip(rollout.kept_activations(), fresh):
            np.testing.assert_array_equal(kept, now)

    def test_stale_reference_produces_nonunit_ratios(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(3))
        cfg = small_train_config(num_steps=6, ref_refresh_interval=3,
                                 learning_rate=5e-3, seed=13)
        _, log = drain(train(policy, cfg), policy)
        off_refresh = [r for r in log if not r["refresh"]]
        assert any(r["ratio_max_dev"] > 1e-9 for r in off_refresh)

    def test_static_stage_uses_one_hot_weights(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(4))
        cfg = small_train_config(static_stage=1, num_steps=2)
        _, log = drain(train(policy, cfg), policy)
        for rec in log:
            np.testing.assert_array_equal(rec["weights"], [1.0, 0.0, 0.0])

    def test_determinism(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(5))
        cfg = small_train_config(num_steps=5, seed=21)
        _, log1 = drain(train(copy_policy(policy), cfg), policy)
        _, log2 = drain(train(copy_policy(policy), cfg), policy)
        assert jsonl(log1) == jsonl(log2)

    def test_zero_steps(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(6))
        trained, log = drain(train(policy, small_train_config(num_steps=0)), policy)
        assert len(log) == 0
        np.testing.assert_array_equal(policy.vector, trained.vector)

    def test_default_suite_filled_in_once_per_run(self, monkeypatch):
        calls = []
        build = grpo.default_suite

        def spy(num_classes):
            calls.append(num_classes)
            return build(num_classes)

        monkeypatch.setattr(grpo, "default_suite", spy)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(10))
        _, log = drain(train(policy, small_train_config(num_steps=3, suite=None)), policy)
        assert calls == [PLANAR.num_classes]
        _, given = drain(train(policy, small_train_config(num_steps=3)), policy)
        assert jsonl(log) == jsonl(given)

    def test_rollout_failure_names_train_step_and_condition(self):
        policy = late_overflow(init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(8)))
        cfg = small_train_config()
        streams = group_streams(cfg, cfg.seed, count=3)
        cond, _ = streams.group(2)
        with pytest.raises(RolloutError) as err, pytest.warns(RuntimeWarning):
            train_step(policy, policy, cfg, streams, step_index=2)
        assert str(err.value) == (f"step 2, condition {cond}: step 3 (t=0.2800): "
                                  "forward pass produced a non-finite output")

    def test_csv_and_jsonl_emission(self, tmp_path):
        # the CLI writes both files from the records train yields: every CSV
        # cell is the text of its JSONL value (refresh as 0/1)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(7))
        _, log = drain(train(policy, small_train_config(num_steps=3)), policy)
        cli._write_trainlog(tmp_path, 3, log)
        lines = (tmp_path / "trainlog.jsonl").read_text().splitlines()
        assert lines == jsonl(log)
        with open(tmp_path / "trainlog.csv", newline="") as fp:
            header, *rows = list(csv.reader(fp))
        assert len(rows) == 3
        assert ",".join(header).startswith("step,refresh,condition,objective")
        for line, row in zip(lines, rows):
            d = json.loads(line)
            want = {key: d[key] for key in ("step", "condition", "objective", "grad_norm",
                                            "clip_fraction", "ratio_max_dev", "mixed_mean")}
            want["refresh"] = int(d["refresh"])
            for column, key in (("weight", "weights"), ("term_mean", "term_means"),
                                ("sparsity", "sparsities"), ("gate", "transitions")):
                want.update((f"{column}_{j}", v) for j, v in enumerate(d[key], start=1))
            assert len(row) == len(header)
            assert dict(zip(header, row)) == {key: repr(v) for key, v in want.items()}


class TestGradientFidelity:
    def test_full_pipeline_matches_finite_differences(self):
        ref = tiny_policy(31)
        trajs = tiny_trajectories(ref, count=4, seed=200, num_steps=2)
        advantages = normalize_advantages(np.array([0.9, 0.1, 0.5, 0.3]))
        assert trajs.kept_steps.tolist() == [0, 1]
        eps, clamp = 0.2, 5.0

        vector = ref.vector + 0.01 * philox(77).standard_normal(ref.vector.size)
        policy = FlowPolicy(ref.dims, ref.layer_sizes, vector)

        J, grads, _, _ = surrogate_and_grads(policy, trajs, advantages, eps, clamp)

        def objective(test_vector):
            p = FlowPolicy(ref.dims, ref.layer_sizes, test_vector.copy())
            val, _, _, _ = surrogate_and_grads(p, trajs, advantages, eps, clamp)
            return val

        assert objective(vector) == pytest.approx(J, rel=1e-12)
        fd = finite_difference(objective, vector.copy(), h=1e-6)
        ok = rel_err_ok(grads, fd, rtol=1e-3, atol=1e-8)
        passed, total = int(ok.sum()), ok.size
        assert passed / total >= 0.95

    def test_on_policy_gradient_matches_reevaluation(self, monkeypatch):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(34))
        cfg = SdeConfig(num_steps=6, eta=0.5)
        subset = [0, 2, 3, 5]
        noise = gaussian_block(RandomSource(500), (), 6, 7 * PLANAR.state_size)
        rollout = sde_sample(policy, 2, cfg, noise.reshape(6, 7, -1), keep=subset)
        adv = normalize_advantages(np.array([0.9, 0.1, 0.5, 0.3, 0.7, 0.2]))

        J_re, grads_re, ratios_re, _ = surrogate_and_grads(policy, rollout, adv, 0.2, 5.0)
        forwards = []
        forward = flow_policy.mlp_forward_batch
        monkeypatch.setattr(flow_policy, "mlp_forward_batch",
                            lambda *a: forwards.append(1) or forward(*a))
        J, grads, ratios, flags = surrogate_and_grads(
            policy, rollout, adv, 0.2, 5.0, ref_policy=policy)
        assert forwards == []
        assert (ratios == 1.0).all()
        assert flags.mean() == 0.0
        assert J == pytest.approx(J_re, abs=1e-12)
        np.testing.assert_allclose(ratios_re, 1.0, rtol=0, atol=1e-12)
        layout = _policy_layout(policy.layer_sizes, policy.dims)
        arrays, arrays_re = (split_params(g, layout) for g in (grads, grads_re))
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
        subset = np.sort(philox(seed + 100, 2).permutation(16)[:10])
        noise = gaussian_block(rng, (1,), G, 17 * dims.state_size).reshape(G, 17, -1)
        adv = normalize_advantages(philox(seed + 100, 3).standard_normal(G))
        kept = sde_sample(policy, 5, cfg, noise, keep=subset)
        # the same rollout with its kept hidden and output activations
        # blanked: re-evaluation must not read them
        bare = sde_sample(policy, 5, cfg, noise, keep=subset)
        for block in bare.kept_layers:
            block.fill(np.nan)
        assert all(np.isnan(a).all() for acts in kept_by_step(bare).values() for a in acts[1:])
        forward = flow_policy.mlp_forward_batch

        def per_step_forward(net, inputs):
            parts = [forward(net, inputs[i:i + G])[1] for i in range(0, len(inputs), G)]
            acts = [np.concatenate(layer) for layer in zip(*parts)]
            return acts[-1], acts

        monkeypatch.setattr(flow_policy, "mlp_forward_batch", per_step_forward)
        on = surrogate_and_grads(policy, kept, adv, 0.1, 5.0, ref_policy=policy)
        re = surrogate_and_grads(policy, bare, adv, 0.1, 5.0, ref_policy=copy_policy(policy))
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
        _, grads, ratios, flags = surrogate_and_grads(policy, trajs, adv, 1e-12, 5.0)
        for (i, t), flagged in np.ndenumerate(flags):
            if not flagged:
                # unflagged elements moved ratio the pessimistic way and were
                # not clipped; they still carry gradient
                assert ratios[i, t] != 1.0

    def test_advantages_consumed_as_constants(self):
        ref = tiny_policy(33)
        trajs = tiny_trajectories(ref, count=4, seed=400, num_steps=2)
        policy = copy_policy(ref)
        policy.net.weights[0][0, 0] += 0.02

        frames = trajs.final_states().reshape(len(trajs), TINY.frames, TINY.frame_dim)
        suite_a = RewardSuite([RewardTerm("fid", 1, "fidelity", 0.05)])
        suite_b = RewardSuite([RewardTerm("fid", 1, "fidelity", 0.5)])
        cfg = CurriculumConfig(thresholds=(0.75,))
        adv_a = curriculum_step(eval_group(suite_a, frames, trajs.conditions), cfg).advantages
        adv_b = curriculum_step(eval_group(suite_b, frames, trajs.conditions), cfg).advantages
        assert not np.allclose(adv_a, adv_b)

        _, grads_a, _, _ = surrogate_and_grads(policy, trajs, adv_a, 0.2, 5.0)
        _, grads_b, _, _ = surrogate_and_grads(policy, trajs, adv_b, 0.2, 5.0)
        # bandwidths changed the gradient, but only through the advantages:
        # feeding the same advantage values back reproduces it bit for bit
        _, grads_b2, _, _ = surrogate_and_grads(policy, trajs, adv_b.copy(), 0.2, 5.0)
        assert not np.array_equal(grads_a, grads_b)
        np.testing.assert_array_equal(grads_b, grads_b2)


class TestRowMajorOracle:
    """``eval_step``, ``Rollout.recorded_eval`` and ``backprop_step`` read
    the kept transitions from the rollout's own step-major arrays; they
    must give, bit for bit, what the row-major transition record gave."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_row_major_formulas(self, data):
        G = data.draw(st.integers(2, 64), label="G")
        K = data.draw(st.integers(1, 16), label="K")
        steps = sorted(data.draw(st.sets(st.integers(0, K - 1), min_size=1), label="kept"))
        eta = data.draw(st.floats(0.01, 2.0), label="eta")
        t_min = data.draw(st.floats(0.001, 0.9), label="t_min")
        hidden = data.draw(st.sampled_from([(6,), (16, 16), (64, 64)]), label="hidden")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        dims = PolicyDims(frames=4, frame_dim=2, num_classes=5, embed_dim=3)
        policy = init_flow_policy(dims, hidden=hidden, rng=RandomSource(seed))
        other = init_flow_policy(dims, hidden=hidden, rng=RandomSource(seed, (9,)))
        rng = philox(seed, 1)
        cfg = SdeConfig(num_steps=K, eta=eta, t_min=t_min)
        noise = rng.standard_normal(G * (K + 1) * dims.state_size).reshape(G, K + 1, -1)
        conds = rng.integers(0, dims.num_classes, size=G)
        rollout = sde_sample(policy, conds, cfg, noise, keep=steps[::-1])
        assert rollout.kept_steps.tolist() == steps
        rows = row_major_transitions(rollout, steps)
        upstream = rng.standard_normal(G * len(steps))

        # the recorded path as the row-major record read it, then
        # re-evaluation under the sampling policy and under another one
        recorded = (rollout.log_probs[:, steps].T.reshape(-1),
                    rollout.step_means.transpose(1, 0, 2)[steps].reshape(-1, dims.state_size),
                    [np.concatenate([kept_by_step(rollout)[k][layer] for k in steps])
                     for layer in range(len(policy.layer_sizes))])
        inputs = rollout.net_inputs.copy()
        cases = [(policy, rollout.recorded_eval(), recorded),
                 (policy, flow_policy.eval_step(policy, rollout), row_major_eval(policy, rows)),
                 (other, flow_policy.eval_step(other, rollout), row_major_eval(other, rows))]
        np.testing.assert_array_equal(rollout.net_inputs, inputs)
        for got, want in zip(flow_policy._kept_targets(rollout),
                             (rows.x_next, rows.std, rows.a_x, rows.a_v)):
            np.testing.assert_array_equal(got, want)
        for p, ev, (log_probs, means, acts) in cases:
            np.testing.assert_array_equal(ev.log_probs, log_probs)
            np.testing.assert_array_equal(ev.means, means)
            assert len(ev.acts) == len(acts)
            for got, want in zip(ev.acts, acts):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                flow_policy.backprop_step(p, rollout, ev, upstream),
                row_major_backprop(p, rows, means, acts, upstream))

    def test_step_constants_come_from_the_rollouts_grid(self):
        """A grid whose a_x and a_v vary per step in a way no
        ``_step_coeffs`` call gives: sampling, re-evaluation and the
        gradient all read the rollout's grid, none re-derives the
        constants from its times."""
        policy, G, steps = tiny_policy(41), 5, [0, 2, 3]
        cfg = SdeConfig(num_steps=4, eta=0.5, t_min=0.2)
        ramp = np.linspace(0.8, 1.2, cfg.num_steps)
        # seeds the config's cached grid, which sde_sample reads
        cfg.__dict__["grid"] = replace(cfg.grid, a_x=cfg.grid.a_x * ramp,
                                       a_v=cfg.grid.a_v * ramp[::-1])
        noise = gaussian_block(RandomSource(42), (), G, 5 * TINY.state_size)
        rollout = sde_sample(policy, [0, 1, 0, 1, 1], cfg, noise.reshape(G, 5, -1), keep=steps)
        assert rollout.grid is cfg.grid
        rows = row_major_transitions(rollout, steps)
        log_probs, means, acts = row_major_eval(policy, rows)

        evaluated = flow_policy.eval_step(policy, rollout)
        np.testing.assert_array_equal(evaluated.log_probs, log_probs)
        np.testing.assert_array_equal(evaluated.means, means)
        # the sampler's per-step forward passes agree at rounding level
        recorded = rollout.recorded_eval()
        np.testing.assert_allclose(recorded.log_probs, log_probs, rtol=1e-12)
        np.testing.assert_allclose(recorded.means, means, rtol=1e-12, atol=1e-15)

        upstream = philox(43).standard_normal(G * len(steps))

        def objective(vector):
            p = FlowPolicy(policy.dims, policy.layer_sizes, vector.copy())
            return float(upstream @ flow_policy.eval_step(p, rollout).log_probs)

        grads = flow_policy.backprop_step(policy, rollout, evaluated, upstream)
        fd = finite_difference(objective, policy.vector.copy(), h=1e-6)
        assert rel_err_ok(grads, fd, rtol=1e-4, atol=1e-8).all()

    def test_rollout_without_kept_steps_rejected(self):
        ref = tiny_policy(36)
        cfg = SdeConfig(num_steps=2, eta=0.5, t_min=0.2)
        noise = gaussian_block(RandomSource(700), (), 4, 3 * TINY.state_size)
        rollout = sde_sample(ref, 0, cfg, noise.reshape(4, 3, -1))
        assert rollout.kept_steps.size == 0
        for reference in (ref, None):
            with pytest.raises(DomainError):
                surrogate_and_grads(ref, rollout, np.ones(4), 0.2, 5.0, ref_policy=reference)


class TestLazyLogDensities:
    """``Rollout.log_probs`` is formed on first read, once: sampling and
    scoring alone never form it, and an on-policy step forms it once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        density = flow_policy._log_density_rows

        def counted(*args):
            calls.append(1)
            return density(*args)

        monkeypatch.setattr(flow_policy, "_log_density_rows", counted)
        return calls

    @staticmethod
    def sampled(eta=0.5):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(3))
        cfg = SdeConfig(num_steps=4, eta=eta)
        noise = gaussian_block(RandomSource(4), (), 5, 5 * PLANAR.state_size)
        return sde_sample(policy, 1, cfg, noise.reshape(5, 5, -1), keep=[1, 3])

    def test_formed_on_first_read_only(self, calls):
        rollout = self.sampled()
        assert calls == []
        first = rollout.log_probs
        assert len(calls) == 1
        assert rollout.log_probs is first
        assert len(calls) == 1
        np.testing.assert_array_equal(
            first, flow_policy._log_density_rows(
                rollout.states[:, 1:], rollout.step_means, rollout.grid.stds))

    def test_eta_zero_forms_nothing(self, calls):
        assert self.sampled(eta=0.0).log_probs is None
        assert calls == []

    def test_eval_run_forms_nothing(self, tmp_path, calls):
        ckpt = tmp_path / "init.ckpt"
        flow_policy.save_policy(ckpt, init_flow_policy(PolicyDims(), hidden=(8,),
                                                       rng=RandomSource(5)))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mode": "eval", "outdir": str(tmp_path / "out"),
                                      "policy": {"init_checkpoint": str(ckpt)},
                                      "train": {"group_size": 8}, "eval": {"num_groups": 2}}))
        assert cli.main([str(config)]) == 0
        assert (tmp_path / "out" / "eval_stats.json").is_file()
        assert calls == []

    def test_on_policy_step_forms_it_once(self, calls):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(6))
        cfg = small_train_config()
        _, _, _, rec = train_step(policy, policy, cfg, group_streams(cfg, 7))
        assert rec["refresh"]
        assert len(calls) == 1


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
        """A stage outside the suite is refused by train_step and by train;
        train is a generator, so it raises on its first ``next()``, not
        when it is called."""
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(8))
        with pytest.raises(DomainError):
            train_step(policy, copy_policy(policy), small_train_config(static_stage=9),
                       group_streams(small_train_config(), 0))
        # without a suite the stage is checked against the default one,
        # which train() fills in once per run
        cfg = small_train_config(static_stage=4, suite=None)
        with pytest.raises(DomainError):
            next(train(policy, cfg))
        with pytest.raises(DomainError):
            train_step(policy, copy_policy(policy), cfg, group_streams(cfg, 0))

    def test_timestep_subset_size(self):
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(9))
        cfg = small_train_config(timestep_fraction=0.6,
                                 sde=SdeConfig(num_steps=5, eta=0.5))
        _, _, _, rec = train_step(policy, copy_policy(policy), cfg, group_streams(cfg, 1))
        assert math.isfinite(rec["objective"])  # ceil(0.6 * 5) = 3 steps selected

    @pytest.mark.parametrize("fraction, num_steps, kept", [
        # products one ulp above an integer in floats (0.14 * 50 is
        # 7.000000000000001): ceil of the raw product kept one step more
        (0.14, 50, 7), (0.28, 25, 7), (0.28, 50, 14), (0.56, 25, 14), (0.56, 50, 28),
        # the default, and products that are not near an integer
        (0.6, 16, 10), (0.6, 5, 3), (0.15, 50, 8), (0.01, 16, 1), (1.0, 16, 16),
    ])
    def test_kept_step_count(self, fraction, num_steps, kept):
        cfg = small_train_config(timestep_fraction=fraction,
                                 sde=SdeConfig(num_steps=num_steps, eta=0.5))
        assert cfg.kept_count == kept

    def test_train_step_keeps_the_kept_count(self, monkeypatch):
        kept, sample = [], grpo.sde_sample

        def spy(*args, keep):
            kept.append(len(keep))
            return sample(*args, keep=keep)

        monkeypatch.setattr(grpo, "sde_sample", spy)
        policy = init_flow_policy(PLANAR, hidden=(8,), rng=RandomSource(9))
        cfg = small_train_config(timestep_fraction=0.14, sde=SdeConfig(num_steps=50, eta=0.5))
        train_step(policy, policy, cfg, group_streams(cfg, 1))
        assert kept == [7]
