"""Sampler contracts: velocity evaluation, score formula, ODE/SDE
degeneracy, transition density validity, and pretraining behavior."""

import math

import numpy as np
import pytest
from helpers import naive_mlp_eval

from flowstage.errors import DomainError, RolloutError, ShapeError
from flowstage.flow_policy import (
    FlowPolicy,
    PolicyDims,
    SdeConfig,
    ToyDataset,
    ToySample,
    decode_state,
    flow_matching_loss,
    init_flow_policy,
    load_policy,
    log_prob_under,
    ode_path,
    ode_sample,
    pretrain_flow_matching,
    save_policy,
    score_from_velocity,
    sde_sample,
    velocity,
)
from flowstage.numerics import RandomSource

SMALL = PolicyDims(frames=2, frame_dim=2, num_classes=3, embed_dim=2)


def small_policy(seed=0, dims=SMALL, hidden=(6,)):
    return init_flow_policy(dims, hidden=hidden, rng=RandomSource(seed))


def zeroed(policy):
    p = policy.copy()
    p.net.vector[:] = 0.0
    return p


def constant_velocity(policy, c):
    """Zero all weights and set the output bias, making v(x, t, cond) = c."""
    p = zeroed(policy)
    p.net.biases[-1][:] = c
    return p


class TestFlatVector:
    def test_net_arrays_and_cond_emb_share_memory_with_the_vector(self):
        p = small_policy(1, hidden=(6, 5))
        views = p.net.weights + p.net.biases + [p.net.vector, p.cond_emb]
        for a in views:
            assert np.shares_memory(a, p.vector)
        assert sum(a.size for a in views[:-2]) + p.cond_emb.size == p.vector.size
        p.cond_emb[2, 1] = 3.5
        assert p.vector[-1] == 3.5
        p.vector[0] = -2.0
        assert p.net.weights[0][0, 0] == -2.0

    def test_copy_shares_nothing(self):
        p = small_policy(2)
        q = p.copy()
        q.net.biases[0][:] = 9.0
        assert not np.shares_memory(p.vector, q.vector)
        assert (p.net.biases[0] != 9.0).all()

    def test_wrong_vector_size_rejected(self):
        p = small_policy(3)
        with pytest.raises(ShapeError):
            FlowPolicy(p.dims, p.layer_sizes, p.vector[:-1])


class TestVelocity:
    def test_zero_net_gives_zero_velocity(self):
        p = zeroed(small_policy())
        v = velocity(p, np.ones(SMALL.state_size), 0.5, 1)
        np.testing.assert_array_equal(v, np.zeros(SMALL.state_size))

    def test_output_dimension(self):
        p = small_policy(1)
        rng = RandomSource(9)
        for _ in range(5):
            v = velocity(p, rng.gaussian(SMALL.state_size), rng.uniform(), 2)
            assert v.shape == (SMALL.state_size,)
            assert np.isfinite(v).all()

    def test_matches_naive_reevaluation(self):
        p = small_policy(2)
        rng = RandomSource(10)
        x = rng.gaussian(SMALL.state_size)
        t, cond = 0.37, 1
        v = velocity(p, x, t, cond)
        inp = np.concatenate([x, [t], p.cond_emb[cond]])
        np.testing.assert_allclose(
            v, naive_mlp_eval(p.net.weights, p.net.biases, inp), rtol=1e-12
        )

    def test_condition_out_of_range(self):
        p = small_policy()
        with pytest.raises(DomainError):
            velocity(p, np.zeros(SMALL.state_size), 0.5, 3)

    def test_time_out_of_range(self):
        p = small_policy()
        with pytest.raises(DomainError):
            velocity(p, np.zeros(SMALL.state_size), 1.5, 0)


class TestScore:
    def test_pure_noise_end_is_negative_x(self):
        x = np.array([0.3, -1.2])
        v = np.array([5.0, -7.0])
        np.testing.assert_allclose(score_from_velocity(x, 1.0, v), -x, rtol=1e-12)

    def test_algebraic_zero(self):
        t = 0.4
        v = np.array([2.0, -1.0])
        x = -(1.0 - t) * v
        np.testing.assert_allclose(score_from_velocity(x, t, v), np.zeros(2), atol=1e-15)

    def test_hand_case(self):
        out = score_from_velocity(np.array([1.0, 0.0]), 0.5, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out, [-2.0, -1.0], rtol=1e-12)

    def test_below_clamp_raises(self):
        with pytest.raises(DomainError):
            score_from_velocity(np.zeros(2), 0.01, np.zeros(2), t_min=0.04)


class TestOdeSampling:
    def test_zero_velocity_returns_initial_noise(self):
        p = zeroed(small_policy(3))
        noise = RandomSource(77).gaussian(SMALL.state_size)
        sample = ode_sample(p, 0, 8, RandomSource(77))
        np.testing.assert_array_equal(sample.frames.reshape(-1), noise)

    def test_one_step_constant_velocity(self):
        # a single Euler step over [1, 0] uses dt = -1: x0 = z - c
        c = 0.7
        p = constant_velocity(small_policy(4), c)
        noise = RandomSource(5).gaussian(SMALL.state_size)
        sample = ode_sample(p, 1, 1, RandomSource(5))
        np.testing.assert_allclose(sample.frames.reshape(-1), noise - c, rtol=1e-12)

    def test_non_finite_state_is_rollout_error(self):
        p = small_policy(6)
        for w in p.net.weights:
            w *= 1e200
        # the scaled net overflows on purpose
        with pytest.raises(RolloutError), pytest.warns(RuntimeWarning):
            ode_sample(p, 0, 4, RandomSource(0))


class TestSdeSampling:
    def test_eta_zero_matches_ode_exactly(self):
        p = small_policy(8)
        cfg = SdeConfig(num_steps=12, eta=0.0, t_min=0.05)
        traj = sde_sample(p, 2, cfg, [RandomSource(21)])[0]
        _, states = ode_path(p, 2, 12, RandomSource(21), t_min=0.05)
        assert traj.log_probs is None
        np.testing.assert_allclose(traj.states, states, atol=1e-12)

    def test_log_probs_match_direct_density(self):
        p = small_policy(9)
        cfg = SdeConfig(num_steps=6, eta=0.5)
        traj = sde_sample(p, 1, cfg, [RandomSource(300)])[0]
        n = SMALL.state_size
        for k in range(traj.num_steps):
            resid = traj.states[k + 1] - traj.step_means[k]
            var = traj.step_stds[k] ** 2
            expected = -0.5 * n * math.log(2.0 * math.pi * var) - float(
                resid @ resid
            ) / (2.0 * var)
            assert abs(traj.log_probs[k] - expected) < 1e-10

    def test_fixed_seed_reproduces_trajectory(self):
        p = small_policy(10)
        cfg = SdeConfig(num_steps=5, eta=0.3)
        a = sde_sample(p, 0, cfg, [RandomSource(41)])[0]
        b = sde_sample(p, 0, cfg, [RandomSource(41)])[0]
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.log_probs, b.log_probs)

    def test_positive_stds_when_eta_positive(self):
        p = small_policy(11)
        traj = sde_sample(p, 0, SdeConfig(num_steps=4, eta=0.2), [RandomSource(1)])[0]
        assert (traj.step_stds > 0).all()

    def test_group_rows_match_one_trajectory_calls(self):
        p = small_policy(16)
        cfg = SdeConfig(num_steps=6, eta=0.5)
        conds = [0, 1, 2, 0, 1]
        streams = [RandomSource(90).stream(i) for i in range(len(conds))]
        group = sde_sample(p, conds, cfg, streams)
        assert len(group) == len(conds)
        for i, cond in enumerate(conds):
            one = sde_sample(p, cond, cfg, [RandomSource(90).stream(i)])[0]
            row = group[i]
            assert row.condition == cond
            np.testing.assert_allclose(row.states, one.states, rtol=0, atol=1e-12)
            np.testing.assert_allclose(row.step_means, one.step_means, rtol=0, atol=1e-12)
            np.testing.assert_allclose(row.log_probs, one.log_probs, rtol=0, atol=1e-12)

    def test_keeps_activations_only_for_named_steps(self):
        p = small_policy(17)
        cfg = SdeConfig(num_steps=5, eta=0.5)
        streams = [RandomSource(91).stream(i) for i in range(3)]
        assert sde_sample(p, 1, cfg, streams).kept == {}
        rollout = sde_sample(p, 1, cfg, streams, keep=[3, 1])
        assert sorted(rollout.kept) == [1, 3]
        assert rollout.kept_activations([1, 2]) is None
        acts = rollout.kept_activations([1, 3])
        assert [a.shape for a in acts] == [(6, s) for s in p.net.layer_sizes]

    def test_non_finite_state_is_rollout_error(self):
        p = small_policy(18)
        for w in p.net.weights:
            w *= 1e200
        # the scaled net overflows on purpose
        with pytest.raises(RolloutError), pytest.warns(RuntimeWarning):
            sde_sample(p, 0, SdeConfig(num_steps=4, eta=0.5), [RandomSource(0)])

    def test_times_decreasing_to_t_min(self):
        p = small_policy(12)
        cfg = SdeConfig(num_steps=5, eta=0.5, t_min=0.1)
        traj = sde_sample(p, 0, cfg, [RandomSource(2)])[0]
        assert traj.times[0] == 1.0
        assert abs(traj.times[-1] - 0.1) < 1e-12
        assert (np.diff(traj.times) < 0).all()


class TestLogProbUnder:
    def test_self_consistency(self):
        p = small_policy(13)
        traj = sde_sample(p, 1, SdeConfig(num_steps=8, eta=0.5), [RandomSource(55)])[0]
        lp = log_prob_under(p, traj)
        np.testing.assert_allclose(lp, traj.log_probs, atol=1e-10)

    def test_subset_selection(self):
        p = small_policy(13)
        traj = sde_sample(p, 1, SdeConfig(num_steps=8, eta=0.5), [RandomSource(56)])[0]
        lp = log_prob_under(p, traj, [1, 4, 6])
        np.testing.assert_allclose(lp, traj.log_probs[[1, 4, 6]], atol=1e-10)

    def test_perturbed_policy_differs(self):
        p = small_policy(14)
        traj = sde_sample(p, 0, SdeConfig(num_steps=4, eta=0.5), [RandomSource(57)])[0]
        q = p.copy()
        q.net.weights[0][0, 0] += 0.05
        assert not np.allclose(log_prob_under(q, traj), traj.log_probs)

    def test_hand_built_single_step(self):
        # constant-velocity policy, one step, known closed-form density
        dims = PolicyDims(frames=1, frame_dim=1, num_classes=1, embed_dim=1)
        c = 0.5
        p = constant_velocity(init_flow_policy(dims, hidden=(2,), rng=RandomSource(1)), c)
        cfg = SdeConfig(num_steps=1, eta=0.5, t_min=0.2)
        traj = sde_sample(p, 0, cfg, [RandomSource(60)])[0]
        # dt = -0.8, t = 1, sigma = 0.5: a_x = 1 + dt*eta^2*t/2 = 0.9
        # a_v = dt*(1 + eta^2*t*(1-t)/2) = dt, mean = 0.9 x - 0.8 c
        x0 = traj.states[0][0]
        mean = 0.9 * x0 - 0.8 * c
        std = 0.5 * 1.0 * math.sqrt(0.8)
        expected = -0.5 * math.log(2 * math.pi * std**2) - (
            traj.states[1][0] - mean
        ) ** 2 / (2 * std**2)
        np.testing.assert_allclose(traj.step_means[0], [mean], rtol=1e-12)
        np.testing.assert_allclose(traj.step_stds[0], std, rtol=1e-12)
        assert abs(log_prob_under(p, traj)[0] - expected) < 1e-10

    def test_eta_zero_trajectory_rejected(self):
        p = small_policy(15)
        traj = sde_sample(p, 0, SdeConfig(num_steps=3, eta=0.0), [RandomSource(58)])[0]
        with pytest.raises(DomainError):
            log_prob_under(p, traj)


class TestToyDataset:
    def test_shapes_and_classes(self):
        ds = ToyDataset(PolicyDims(frames=6, frame_dim=2, num_classes=4, embed_dim=2))
        frames, conds = ds.sample_batch(RandomSource(71), 10)
        assert frames.shape == (10, 6, 2)
        assert conds.shape == (10,)
        assert ((conds >= 0) & (conds < 4)).all()

    def test_final_frame_hits_class_angle_without_jitter(self):
        dims = PolicyDims(frames=5, frame_dim=2, num_classes=8, embed_dim=2)
        ds = ToyDataset(dims, jitter=0.0)
        frames, conds = ds.sample_batch(RandomSource(72), 20)
        for f, c in zip(frames, conds):
            np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
            angle = math.atan2(f[-1, 1], f[-1, 0]) % (2 * math.pi)
            np.testing.assert_allclose(angle, ds.target_angle(c) % (2 * math.pi),
                                       atol=1e-9)

    def test_rotation_rate(self):
        dims = PolicyDims(frames=4, frame_dim=2, num_classes=2, embed_dim=2)
        ds = ToyDataset(dims, omega=0.3, jitter=0.0)
        frames, _ = ds.sample_batch(RandomSource(73), 3)
        for f in frames:
            angles = np.unwrap(np.arctan2(f[:, 1], f[:, 0]))
            np.testing.assert_allclose(np.diff(angles), 0.3, atol=1e-9)

    def test_requires_planar_frames(self):
        with pytest.raises(DomainError):
            ToyDataset(PolicyDims(frames=4, frame_dim=3, num_classes=2, embed_dim=2))


class TestPretraining:
    def test_zero_steps_returns_unchanged_policy(self):
        p = small_policy(20)
        ds = ToyDataset(SMALL)
        trained, losses = pretrain_flow_matching(p, ds, 0, RandomSource(0))
        assert losses == []
        np.testing.assert_array_equal(p.vector, trained.vector)

    def test_point_mass_residual_shrinks(self):
        dims = PolicyDims(frames=2, frame_dim=2, num_classes=1, embed_dim=2)
        p = init_flow_policy(dims, hidden=(32,), rng=RandomSource(30))
        star = np.array([[[1.0, 0.0], [0.0, 1.0]]])

        class PointMass:
            def sample_batch(self, rng, n):
                return np.repeat(star, n, axis=0), np.zeros(n, dtype=np.int64)

        ds = PointMass()

        def residual(policy):
            rng = RandomSource(999)
            frames = np.repeat(star, 256, axis=0)
            conds = np.zeros(256, dtype=np.int64)
            eps = rng.gaussian(256 * dims.state_size).reshape(256, -1)
            t = rng.uniform(256)
            return flow_matching_loss(policy, frames, conds, t, eps)

        before = residual(p)
        trained, _ = pretrain_flow_matching(p, ds, 1500, RandomSource(31),
                                            batch_size=32, learning_rate=3e-3)
        assert residual(trained) < 0.1 * before

    def test_held_out_loss_improves_majority_of_seeds(self):
        dims = PolicyDims(frames=4, frame_dim=2, num_classes=4, embed_dim=4)
        ds = ToyDataset(dims)
        wins = 0
        for seed in range(5):
            p = init_flow_policy(dims, hidden=(32,), rng=RandomSource(seed))
            eval_rng = RandomSource(10_000 + seed)
            frames, conds = ds.sample_batch(eval_rng, 128)
            eps = eval_rng.gaussian(128 * dims.state_size).reshape(128, -1)
            t = eval_rng.uniform(128)
            before = flow_matching_loss(p, frames, conds, t, eps)
            trained, _ = pretrain_flow_matching(p, ds, 2000, RandomSource(seed + 50))
            after = flow_matching_loss(trained, frames, conds, t, eps)
            wins += after < before
        assert wins >= 3


class TestPersistence:
    def test_policy_checkpoint_roundtrip(self, tmp_path):
        p = small_policy(40)
        path = tmp_path / "p.ckpt"
        save_policy(path, p, {"stage": "pretrained"})
        loaded, meta = load_policy(path)
        assert meta["stage"] == "pretrained"
        assert loaded.dims == p.dims
        assert loaded.layer_sizes == p.layer_sizes
        np.testing.assert_array_equal(p.vector, loaded.vector)


class TestToySampleValidation:
    def test_too_few_frames_rejected(self):
        with pytest.raises(ShapeError):
            ToySample(np.zeros((1, 2)), 0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            ToySample(np.array([[np.nan, 0.0], [0.0, 0.0]]), 0)

    def test_decode_state_shapes(self):
        s = decode_state(np.arange(4.0), SMALL, 2)
        assert s.frames.shape == (2, 2)
        assert s.condition == 2
