"""Sampler contracts: velocity evaluation, ODE/SDE degeneracy, transition
density validity, and pretraining behavior."""

import math

import numpy as np
import pytest
from helpers import naive_mlp_eval
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage.errors import DomainError, RolloutError, ShapeError
from flowstage.flow_policy import (
    FlowPolicy,
    PolicyDims,
    SdeConfig,
    ToyDataset,
    eval_step,
    init_flow_policy,
    load_policy,
    ode_path,
    pretrain_flow_matching,
    save_policy,
    sde_sample,
    velocity,
)
from flowstage.numerics import RandomSource, mlp_forward_batch

SMALL = PolicyDims(frames=2, frame_dim=2, num_classes=3, embed_dim=2)


def small_policy(seed=0, dims=SMALL, hidden=(6,)):
    return init_flow_policy(dims, hidden=hidden, rng=RandomSource(seed))


def noise_block(policy, cfg, *streams):
    """The (G, K + 1, n) noise block of :func:`sde_sample`, row i drawn
    from ``streams[i]``."""
    size = (cfg.num_steps + 1) * policy.dims.state_size
    block = np.stack([r.gaussian(size) for r in streams])
    return block.reshape(len(streams), cfg.num_steps + 1, -1)


def reevaluated(policy, rollout, steps):
    """Log-densities of ``rollout``'s transitions at ``steps`` under
    ``policy``, (G, len(steps)) like ``rollout.log_probs``."""
    rows = rollout.transitions(steps)
    return eval_step(policy, rows).log_probs.reshape(len(steps), len(rollout)).T


def flow_matching_loss(policy, frames, conds, t, eps):
    """Mean squared residual of the velocity net against (noise - data) at
    x_t = (1 - t) data + t noise."""
    data = frames.reshape(len(frames), -1)
    x_t = (1.0 - t)[:, None] * data + t[:, None] * eps
    v, _ = mlp_forward_batch(
        policy.net, np.concatenate([x_t, t[:, None], policy.cond_emb[conds]], axis=1))
    return float(np.mean((v - (eps - data)) ** 2))


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

    @pytest.mark.parametrize("cond", [2.5, 2.0, True, -1])
    def test_condition_must_be_an_integer_class(self, cond):
        # a fractional condition is not truncated to a class, in velocity
        # and in ode_path, as sde_sample and eval_group reject it too
        p = small_policy()
        with pytest.raises(DomainError):
            velocity(p, np.zeros(SMALL.state_size), 0.5, cond)
        with pytest.raises(DomainError):
            ode_path(p, cond, 4, RandomSource(1))

    def test_numpy_integer_condition_accepted(self):
        p = small_policy()
        x = np.full(SMALL.state_size, 0.3)
        np.testing.assert_array_equal(velocity(p, x, 0.5, np.int64(2)),
                                      velocity(p, x, 0.5, 2))


class TestOdeSampling:
    def test_zero_velocity_returns_initial_noise(self):
        p = zeroed(small_policy(3))
        noise = RandomSource(77).gaussian(SMALL.state_size)
        _, states = ode_path(p, 0, 8, RandomSource(77))
        np.testing.assert_array_equal(states[-1], noise)

    def test_one_step_constant_velocity(self):
        # a single Euler step over [1, 0] uses dt = -1: x0 = z - c
        c = 0.7
        p = constant_velocity(small_policy(4), c)
        noise = RandomSource(5).gaussian(SMALL.state_size)
        _, states = ode_path(p, 1, 1, RandomSource(5))
        np.testing.assert_allclose(states[-1], noise - c, rtol=1e-12)

    def test_non_finite_state_is_rollout_error(self):
        p = small_policy(6)
        for w in p.net.weights:
            w *= 1e200
        # the scaled net overflows on purpose
        with pytest.raises(RolloutError), pytest.warns(RuntimeWarning):
            ode_path(p, 0, 4, RandomSource(0))


class TestSdeSampling:
    def test_eta_zero_matches_ode_exactly(self):
        p = small_policy(8)
        cfg = SdeConfig(num_steps=12, eta=0.0, t_min=0.05)
        rollout = sde_sample(p, 2, cfg, noise_block(p, cfg, RandomSource(21)))
        _, states = ode_path(p, 2, 12, RandomSource(21), t_min=0.05)
        assert rollout.log_probs is None
        np.testing.assert_allclose(rollout.states[0], states, atol=1e-12)

    def test_log_probs_match_direct_density(self):
        p = small_policy(9)
        cfg = SdeConfig(num_steps=6, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, RandomSource(300)))
        n = SMALL.state_size
        for k in range(cfg.num_steps):
            resid = rollout.states[0, k + 1] - rollout.step_means[0, k]
            var = rollout.step_stds[k] ** 2
            expected = -0.5 * n * math.log(2.0 * math.pi * var) - float(
                resid @ resid
            ) / (2.0 * var)
            assert abs(rollout.log_probs[0, k] - expected) < 1e-10

    def test_fixed_seed_reproduces_trajectory(self):
        p = small_policy(10)
        cfg = SdeConfig(num_steps=5, eta=0.3)
        a = sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(41)))
        b = sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(41)))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.log_probs, b.log_probs)

    def test_positive_stds_when_eta_positive(self):
        p = small_policy(11)
        cfg = SdeConfig(num_steps=4, eta=0.2)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(1)))
        assert (rollout.step_stds > 0).all()

    def test_group_rows_match_one_trajectory_calls(self):
        p = small_policy(16)
        cfg = SdeConfig(num_steps=6, eta=0.5)
        conds = [0, 1, 2, 0, 1]
        block = RandomSource(90).gaussian_streams((), len(conds), 7 * SMALL.state_size)
        group = sde_sample(p, conds, cfg, block.reshape(len(conds), 7, -1))
        assert len(group) == len(conds)
        for i, cond in enumerate(conds):
            one = sde_sample(p, cond, cfg, noise_block(p, cfg, RandomSource(90).stream(i)))
            assert group.conditions[i] == cond
            for name in ("states", "step_means", "log_probs"):
                np.testing.assert_allclose(getattr(group, name)[i], getattr(one, name)[0],
                                           rtol=0, atol=1e-12)

    def test_keeps_activations_only_for_named_steps(self):
        p = small_policy(17)
        cfg = SdeConfig(num_steps=5, eta=0.5)
        noise = noise_block(p, cfg, *(RandomSource(91).stream(i) for i in range(3)))
        assert sde_sample(p, 1, cfg, noise).kept == {}
        rollout = sde_sample(p, 1, cfg, noise, keep=[3, 1])
        assert sorted(rollout.kept) == [1, 3]
        assert rollout.kept_activations([1, 2]) is None
        acts = rollout.kept_activations([1, 3])
        assert [a.shape for a in acts] == [(6, s) for s in p.net.layer_sizes]

    def test_non_finite_state_is_rollout_error(self):
        p = small_policy(18)
        for w in p.net.weights:
            w *= 1e200
        cfg = SdeConfig(num_steps=4, eta=0.5)
        # the scaled net overflows on purpose
        with pytest.raises(RolloutError), pytest.warns(RuntimeWarning):
            sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(0)))

    def test_noise_block_shape_checked(self):
        p = small_policy(19)
        cfg = SdeConfig(num_steps=4, eta=0.5)
        noise = noise_block(p, cfg, RandomSource(3), RandomSource(4))
        for bad in (noise[:, :-1], noise[..., :-1], noise[0], noise[:0]):
            with pytest.raises(ShapeError):
                sde_sample(p, 0, cfg, bad)

    @pytest.mark.parametrize("cond", [2.5, [0, 1.5], 2.0, True, [0, 3], -1, 3])
    def test_bad_condition_is_domain_error(self, cond):
        p = small_policy(20)
        cfg = SdeConfig(num_steps=3, eta=0.5)
        noise = noise_block(p, cfg, RandomSource(5), RandomSource(6))
        with pytest.raises(DomainError):
            sde_sample(p, cond, cfg, noise)

    @pytest.mark.parametrize("cond", [[0], [0, 1, 2], [[0, 1]]])
    def test_condition_count_is_shape_error(self, cond):
        p = small_policy(21)
        cfg = SdeConfig(num_steps=3, eta=0.5)
        noise = noise_block(p, cfg, RandomSource(5), RandomSource(6))
        with pytest.raises(ShapeError):
            sde_sample(p, cond, cfg, noise)

    def test_times_decreasing_to_t_min(self):
        p = small_policy(12)
        cfg = SdeConfig(num_steps=5, eta=0.5, t_min=0.1)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(2)))
        assert rollout.times[0] == 1.0
        assert abs(rollout.times[-1] - 0.1) < 1e-12
        assert (np.diff(rollout.times) < 0).all()


def reference_rollout(policy, cond, config, noise, keep):
    """Per-step oracle for :func:`sde_sample`: a fresh net input, forward
    pass, mean, state and log-density at every step, written
    independently of the module's helpers."""
    G, n, K, eta = len(noise), policy.dims.state_size, config.num_steps, config.eta
    conds = np.broadcast_to(np.asarray(cond, dtype=np.int64), (G,))
    times = np.linspace(1.0, config.t_min, K + 1)
    dt = (config.t_min - 1.0) / K
    states, means, stds, log_probs, kept = [noise[:, 0]], [], [], [], {}
    x = noise[:, 0]
    emb = policy.cond_emb[conds]
    last = len(policy.net.weights) - 1
    for k in range(K):
        t = float(times[k])
        acts = [np.concatenate([x, np.full((G, 1), t), emb], axis=1)]
        for layer, (w, b) in enumerate(zip(policy.net.weights, policy.net.biases)):
            z = acts[-1] @ w.T + b
            acts.append(np.tanh(z) if layer < last else z)
        half = 0.5 * eta * eta
        mean = (1.0 + dt * half) * x + dt * (1.0 + half * (1.0 - t)) * acts[-1]
        std = eta * math.sqrt(t * -dt)
        x = mean + std * noise[:, k + 1]
        if eta > 0.0:
            resid = x - mean
            var2 = 2.0 * std * std
            log_probs.append(-0.5 * n * np.log(np.pi * var2)
                             - np.einsum("ij,ij->i", resid, resid) / var2)
        states.append(x)
        means.append(mean)
        stds.append(std)
        if k in keep:
            kept[k] = acts
    return (np.stack(states, axis=1), np.stack(means, axis=1), np.array(stds),
            np.stack(log_probs, axis=1) if eta > 0.0 else None, kept)


class TestSdeSampleOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_per_step_oracle(self, data):
        G = data.draw(st.integers(1, 70), label="G")
        K = data.draw(st.integers(1, 20), label="K")
        eta = data.draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)), label="eta")
        t_min = data.draw(st.floats(0.001, 0.9), label="t_min")
        hidden = data.draw(st.sampled_from([(6,), (16, 16), (64, 64)]), label="hidden")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        dims = PolicyDims(frames=4, frame_dim=2, num_classes=5, embed_dim=3)
        p = init_flow_policy(dims, hidden=hidden, rng=RandomSource(seed))
        rng = RandomSource(seed, (1,))
        if data.draw(st.booleans(), label="one condition"):
            cond = data.draw(st.integers(0, dims.num_classes - 1), label="cond")
        else:
            cond = rng.integers(0, dims.num_classes, size=G)
        keep = data.draw(st.sets(st.integers(0, K - 1)), label="keep")
        cfg = SdeConfig(num_steps=K, eta=eta, t_min=t_min)
        noise = rng.gaussian(G * (K + 1) * dims.state_size).reshape(G, K + 1, -1)
        before = noise.copy()

        rollout = sde_sample(p, cond, cfg, noise, keep=keep)
        states, means, stds, log_probs, kept = reference_rollout(p, cond, cfg, noise, keep)
        np.testing.assert_array_equal(noise, before)
        np.testing.assert_array_equal(rollout.states, states)
        np.testing.assert_array_equal(rollout.step_means, means)
        np.testing.assert_array_equal(rollout.step_stds, stds)
        if eta == 0.0:
            assert rollout.log_probs is None
        else:
            np.testing.assert_array_equal(rollout.log_probs, log_probs)
        np.testing.assert_array_equal(rollout.conditions, np.broadcast_to(cond, (G,)))
        assert sorted(rollout.kept) == sorted(kept)
        for k, acts in kept.items():
            assert len(rollout.kept[k]) == len(acts)
            for got, want in zip(rollout.kept[k], acts):
                np.testing.assert_array_equal(got, want)
        arrays = [a for acts in rollout.kept.values() for a in acts]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, noise)
            assert not any(np.shares_memory(a, b) for b in arrays[:i])


class TestTransitionLogProbs:
    """``eval_step`` over ``rollout.transitions``: the recorded transitions
    re-evaluated under a policy."""

    def test_self_consistency(self):
        p = small_policy(13)
        cfg = SdeConfig(num_steps=8, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, RandomSource(55)))
        lp = reevaluated(p, rollout, range(8))
        np.testing.assert_allclose(lp, rollout.log_probs, atol=1e-10)

    def test_subset_selection(self):
        p = small_policy(13)
        cfg = SdeConfig(num_steps=8, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, RandomSource(56)))
        lp = reevaluated(p, rollout, [1, 4, 6])
        np.testing.assert_allclose(lp, rollout.log_probs[:, [1, 4, 6]], atol=1e-10)

    def test_perturbed_policy_differs(self):
        p = small_policy(14)
        cfg = SdeConfig(num_steps=4, eta=0.5)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(57)))
        q = p.copy()
        q.net.weights[0][0, 0] += 0.05
        assert not np.allclose(reevaluated(q, rollout, range(4)), rollout.log_probs)

    def test_hand_built_single_step(self):
        # constant-velocity policy, one step, known closed-form density
        dims = PolicyDims(frames=1, frame_dim=1, num_classes=1, embed_dim=1)
        c = 0.5
        p = constant_velocity(init_flow_policy(dims, hidden=(2,), rng=RandomSource(1)), c)
        cfg = SdeConfig(num_steps=1, eta=0.5, t_min=0.2)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, RandomSource(60)))
        # dt = -0.8, t = 1, sigma = 0.5: a_x = 1 + dt*eta^2*t/2 = 0.9
        # a_v = dt*(1 + eta^2*t*(1-t)/2) = dt, mean = 0.9 x - 0.8 c
        x0 = rollout.states[0, 0, 0]
        mean = 0.9 * x0 - 0.8 * c
        std = 0.5 * 1.0 * math.sqrt(0.8)
        expected = -0.5 * math.log(2 * math.pi * std**2) - (
            rollout.states[0, 1, 0] - mean
        ) ** 2 / (2 * std**2)
        np.testing.assert_allclose(rollout.step_means[0, 0], [mean], rtol=1e-12)
        np.testing.assert_allclose(rollout.step_stds[0], std, rtol=1e-12)
        assert abs(reevaluated(p, rollout, [0])[0, 0] - expected) < 1e-10


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
            target = 2.0 * math.pi * c / dims.num_classes
            np.testing.assert_allclose(angle, target % (2 * math.pi), atol=1e-9)

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

