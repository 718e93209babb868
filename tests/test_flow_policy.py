"""Sampler contracts: velocity evaluation, the sampler at eta = 0 as the
ODE, transition density validity, and pretraining behavior."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    copy_policy,
    drain,
    gaussian_block,
    kept_by_step,
    late_overflow,
    naive_mlp_eval,
    optimal_velocity,
    philox,
    toy_class_means,
    toy_marginal_std,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage import flow_policy
from flowstage.config import DEFAULTS
from flowstage.errors import DomainError, RolloutError, ShapeError
from flowstage.flow_policy import (
    DEFAULT_T_MIN,
    FlowPolicy,
    PolicyDims,
    SdeConfig,
    ToyDataset,
    _step_coeffs,
    eval_step,
    init_flow_policy,
    load_policy,
    pretrain_flow_matching,
    save_policy,
    sde_sample,
    velocity,
)
from flowstage.numerics import RandomSource, mlp_forward_batch

SMALL = PolicyDims(frames=2, frame_dim=2, num_classes=3, embed_dim=2)
PRETRAIN = DEFAULTS["pretrain"]
# the deterministic sampler: at eta = 0 an SDE step is the Euler step x + dt v
ODE = SdeConfig(num_steps=4, eta=0.0, t_min=0.05)


def small_policy(seed=0, dims=SMALL, hidden=(6,)):
    return init_flow_policy(dims, hidden=hidden, rng=RandomSource(seed))


def noise_block(policy, cfg, *streams):
    """The (G, K + 1, n) noise block of :func:`sde_sample`, row i drawn
    from the generator ``streams[i]``."""
    size = (cfg.num_steps + 1) * policy.dims.state_size
    block = np.stack([r.standard_normal(size) for r in streams])
    return block.reshape(len(streams), cfg.num_steps + 1, -1)


def reevaluated(policy, rollout):
    """Log-densities of ``rollout``'s kept transitions under ``policy``,
    (G, len(kept_steps)) like ``rollout.log_probs``."""
    T = len(rollout.kept_steps)
    return eval_step(policy, rollout).log_probs.reshape(T, len(rollout)).T


def flow_matching_loss(policy, frames, conds, t, eps):
    """Mean squared residual of the velocity net against (noise - data) at
    x_t = (1 - t) data + t noise."""
    data = frames.reshape(len(frames), -1)
    x_t = (1.0 - t)[:, None] * data + t[:, None] * eps
    v, _ = mlp_forward_batch(
        policy.net, np.concatenate([x_t, t[:, None], policy.cond_emb[conds]], axis=1))
    return float(np.mean((v - (eps - data)) ** 2))


def zeroed(policy):
    p = copy_policy(policy)
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

    @pytest.mark.parametrize("dims, hidden", [(SMALL, (6, 0)), (replace(SMALL, embed_dim=0), (6,)),
                                              (replace(SMALL, num_classes=0), (6,))])
    def test_empty_layer_or_embedding_rejected(self, dims, hidden):
        with pytest.raises(DomainError):
            init_flow_policy(dims, hidden=hidden, rng=RandomSource(0))

    def test_wrong_vector_size_rejected(self):
        p = small_policy(3)
        with pytest.raises(ShapeError):
            FlowPolicy(p.dims, p.layer_sizes, p.vector[:-1])

    @pytest.mark.parametrize("seed", [0, 1, 9001, 2**40 + 7])
    def test_initial_draws_are_numpy_streams(self, seed):
        # a run's initial policy: W_l ~ N(0, 1/fan_in) in layer order from
        # child stream (100, 0), zero biases, the embedding from (100, 1)
        p = init_flow_policy(SMALL, hidden=(6, 5), rng=RandomSource(seed).stream(100))
        weights = philox(seed, 100, 0)
        for w, b in zip(p.net.weights, p.net.biases):
            np.testing.assert_array_equal(
                w, weights.standard_normal(w.shape) / math.sqrt(w.shape[1]))
            assert not b.any()
        np.testing.assert_array_equal(
            p.cond_emb,
            philox(seed, 100, 1).standard_normal(p.cond_emb.shape) / math.sqrt(SMALL.embed_dim))


class TestVelocity:
    def test_zero_net_gives_zero_velocity(self):
        p = zeroed(small_policy())
        v = velocity(p, np.ones(SMALL.state_size), 0.5, 1)
        np.testing.assert_array_equal(v, np.zeros(SMALL.state_size))

    def test_output_dimension(self):
        p = small_policy(1)
        rng = philox(9)
        for _ in range(5):
            v = velocity(p, rng.standard_normal(SMALL.state_size), rng.random(), 2)
            assert v.shape == (SMALL.state_size,)
            assert np.isfinite(v).all()

    def test_matches_naive_reevaluation(self):
        p = small_policy(2)
        rng = philox(10)
        x = rng.standard_normal(SMALL.state_size)
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
        # and in the sampler at eta = 0, as eval_group rejects it too
        p = small_policy()
        with pytest.raises(DomainError):
            velocity(p, np.zeros(SMALL.state_size), 0.5, cond)
        with pytest.raises(DomainError):
            sde_sample(p, cond, ODE, noise_block(p, ODE, philox(1)))

    def test_numpy_integer_condition_accepted(self):
        p = small_policy()
        x = np.full(SMALL.state_size, 0.3)
        np.testing.assert_array_equal(velocity(p, x, 0.5, np.int64(2)),
                                      velocity(p, x, 0.5, 2))


class TestOdeSampling:
    def test_zero_velocity_returns_initial_noise(self):
        p = zeroed(small_policy(3))
        cfg = replace(ODE, num_steps=8)
        noise = noise_block(p, cfg, philox(77))
        rollout = sde_sample(p, 0, cfg, noise)
        np.testing.assert_array_equal(rollout.states[0, -1], noise[0, 0])

    def test_one_step_constant_velocity(self):
        # a single Euler step over [1, t_min] uses dt = t_min - 1
        c = 0.7
        p = constant_velocity(small_policy(4), c)
        cfg = replace(ODE, num_steps=1)
        noise = noise_block(p, cfg, philox(5))
        rollout = sde_sample(p, 1, cfg, noise)
        np.testing.assert_allclose(rollout.states[0, -1], noise[0, 0] + (cfg.t_min - 1.0) * c,
                                   rtol=1e-12)

    def test_non_finite_state_is_rollout_error(self):
        p = small_policy(6)
        for w in p.net.weights:
            w *= 1e200
        # the scaled net overflows on purpose
        with pytest.raises(RolloutError), pytest.warns(RuntimeWarning):
            sde_sample(p, 0, ODE, noise_block(p, ODE, philox(0)))


class TestSdeSampling:
    def test_eta_zero_matches_ode_exactly(self):
        p = small_policy(8)
        cfg = SdeConfig(num_steps=12, eta=0.0, t_min=0.05)
        noise = noise_block(p, cfg, philox(21))
        rollout = sde_sample(p, 2, cfg, noise)
        # Euler integration of dx = v dt from t = 1 down to t_min
        dt = (cfg.t_min - 1.0) / cfg.num_steps
        states = [noise[0, 0]]
        for t in np.linspace(1.0, cfg.t_min, cfg.num_steps + 1)[:-1]:
            states.append(states[-1] + dt * velocity(p, states[-1], float(t), 2))
        assert rollout.log_probs is None
        np.testing.assert_allclose(rollout.states[0], states, atol=1e-12)

    def test_log_probs_match_direct_density(self):
        p = small_policy(9)
        cfg = SdeConfig(num_steps=6, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, philox(300)))
        n = SMALL.state_size
        for k in range(cfg.num_steps):
            resid = rollout.states[0, k + 1] - rollout.step_means[0, k]
            var = rollout.grid.stds[k] ** 2
            expected = -0.5 * n * math.log(2.0 * math.pi * var) - float(
                resid @ resid
            ) / (2.0 * var)
            assert abs(rollout.log_probs[0, k] - expected) < 1e-10

    def test_fixed_seed_reproduces_trajectory(self):
        p = small_policy(10)
        cfg = SdeConfig(num_steps=5, eta=0.3)
        a = sde_sample(p, 0, cfg, noise_block(p, cfg, philox(41)))
        b = sde_sample(p, 0, cfg, noise_block(p, cfg, philox(41)))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.log_probs, b.log_probs)

    def test_positive_stds_when_eta_positive(self):
        p = small_policy(11)
        cfg = SdeConfig(num_steps=4, eta=0.2)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, philox(1)))
        assert (rollout.grid.stds > 0).all()

    def test_group_rows_match_one_trajectory_calls(self):
        p = small_policy(16)
        cfg = SdeConfig(num_steps=6, eta=0.5)
        conds = [0, 1, 2, 0, 1]
        block = gaussian_block(RandomSource(90), (), len(conds), 7 * SMALL.state_size)
        group = sde_sample(p, conds, cfg, block.reshape(len(conds), 7, -1))
        assert len(group) == len(conds)
        for i, cond in enumerate(conds):
            one = sde_sample(p, cond, cfg, block[i].reshape(1, 7, -1))
            assert group.conditions[i] == cond
            for name in ("states", "step_means", "log_probs"):
                np.testing.assert_allclose(getattr(group, name)[i], getattr(one, name)[0],
                                           rtol=0, atol=1e-12)

    def test_keeps_activations_only_for_named_steps(self):
        p = small_policy(17)
        cfg = SdeConfig(num_steps=5, eta=0.5)
        noise = noise_block(p, cfg, *(philox(91, i) for i in range(3)))
        assert kept_by_step(sde_sample(p, 1, cfg, noise)) == {}
        rollout = sde_sample(p, 1, cfg, noise, keep=[3, 1])
        assert sorted(kept_by_step(rollout)) == [1, 3]
        assert rollout.kept_steps.tolist() == [1, 3]
        acts = rollout.kept_activations()
        assert [a.shape for a in acts] == [(6, s) for s in p.net.layer_sizes]

    def test_non_finite_state_is_rollout_error(self):
        p = small_policy(18)
        for w in p.net.weights:
            w *= 1e200
        cfg = SdeConfig(num_steps=4, eta=0.5)
        # the scaled net overflows on purpose
        with pytest.raises(RolloutError), pytest.warns(RuntimeWarning):
            sde_sample(p, 0, cfg, noise_block(p, cfg, philox(0)))

    def test_kept_activations_in_keep_order_are_views(self):
        p = small_policy(26, hidden=(40, 30))
        cfg = SdeConfig(num_steps=6, eta=0.5)
        noise = noise_block(p, cfg, *(philox(27, i) for i in range(32)))
        rollout = sde_sample(p, 2, cfg, noise, keep=[4, 1, 2])
        steps = [1, 2, 4]
        by_step = kept_by_step(rollout)
        assert list(by_step) == steps
        tracemalloc.start()
        try:
            acts = rollout.kept_activations()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the input rows are gathered (kept steps' workspace rows are not
        # adjacent); every later layer is the kept block itself, no copy
        assert peak < acts[0].nbytes + 4096 < sum(a.nbytes for a in acts[1:])
        for layer, got in enumerate(acts):
            np.testing.assert_array_equal(
                got, np.concatenate([by_step[k][layer] for k in steps]))
            for k in steps:
                assert layer == 0 or np.shares_memory(got, by_step[k][layer])

    def test_kept_blocks_must_match_the_kept_steps(self):
        p = small_policy(28)
        cfg = SdeConfig(num_steps=4, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, philox(29)), keep=[0, 2])
        with pytest.raises(ShapeError):
            replace(rollout, kept_steps=[0])
        with pytest.raises(ShapeError):
            replace(rollout, kept_layers=[b[:1] for b in rollout.kept_layers])

    def test_output_overflow_names_step_and_time(self):
        p = late_overflow(small_policy(22, hidden=(4,)))
        cfg = SdeConfig(num_steps=4, eta=0.5)
        noise = noise_block(p, cfg, *(philox(23, i) for i in range(3)))
        # the output product overflows on purpose
        with pytest.raises(RolloutError) as err, pytest.warns(RuntimeWarning):
            sde_sample(p, 1, cfg, noise)
        assert str(err.value) == "step 3 (t=0.2800): forward pass produced a non-finite output"

    def test_late_overflow_needs_one_hidden_layer(self):
        # a second hidden layer reads only zeros and passes on tanh(0) = 0
        with pytest.raises(ValueError):
            late_overflow(small_policy(22, hidden=(4, 4)))

    def test_state_overflow_names_rollouts_step_and_time(self):
        # a constant velocity stays finite; two huge increments in one
        # coordinate of rollouts 0 and 2 overflow their state at step 1
        p = constant_velocity(small_policy(24), 0.3)
        cfg = SdeConfig(num_steps=4, eta=2.0)
        noise = noise_block(p, cfg, *(philox(25, i) for i in range(4)))
        noise[[0, 2], 1:3, 3] = 1.7e308
        with pytest.raises(RolloutError) as err, pytest.warns(RuntimeWarning):
            sde_sample(p, 1, cfg, noise)
        assert str(err.value) == "non-finite state in rollouts [0, 2] at step 1 (t=0.7600)"

    def test_noise_block_shape_checked(self):
        p = small_policy(19)
        cfg = SdeConfig(num_steps=4, eta=0.5)
        noise = noise_block(p, cfg, philox(3), philox(4))
        for bad in (noise[:, :-1], noise[..., :-1], noise[0], noise[:0]):
            with pytest.raises(ShapeError):
                sde_sample(p, 0, cfg, bad)

    @pytest.mark.parametrize("cond", [2.5, [0, 1.5], 2.0, True, [0, 3], -1, 3])
    def test_bad_condition_is_domain_error(self, cond):
        p = small_policy(20)
        cfg = SdeConfig(num_steps=3, eta=0.5)
        noise = noise_block(p, cfg, philox(5), philox(6))
        with pytest.raises(DomainError):
            sde_sample(p, cond, cfg, noise)

    @pytest.mark.parametrize("cond", [[0], [0, 1, 2], [[0, 1]]])
    def test_condition_count_is_shape_error(self, cond):
        p = small_policy(21)
        cfg = SdeConfig(num_steps=3, eta=0.5)
        noise = noise_block(p, cfg, philox(5), philox(6))
        with pytest.raises(ShapeError):
            sde_sample(p, cond, cfg, noise)

    def test_times_decreasing_to_t_min(self):
        p = small_policy(12)
        cfg = SdeConfig(num_steps=5, eta=0.5, t_min=0.1)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, philox(2)))
        assert rollout.grid.times[0] == 1.0
        assert abs(rollout.grid.times[-1] - 0.1) < 1e-12
        assert (np.diff(rollout.grid.times) < 0).all()


class TestSdeGrid:
    @pytest.mark.parametrize("num_steps", [1, 3, 8, 16, 50, 64, 256])
    def test_constants_are_step_coeffs_per_step(self, num_steps):
        """The grid's (K,) arrays hold, bit for bit, what one
        ``_step_coeffs`` call per step gives on Python floats."""
        for eta, t_min in itertools.product([0.0, 0.3, 0.5, 1.0, 1.7], [0.01, 0.04, 0.1, 0.5]):
            grid = SdeConfig(num_steps, eta, t_min).grid
            assert (grid.eta, grid.dt) == (eta, (t_min - 1.0) / num_steps)
            np.testing.assert_array_equal(grid.times, np.linspace(1.0, t_min, num_steps + 1))
            assert not grid.times.flags.writeable
            for array in (grid.stds, grid.a_x, grid.a_v):
                assert array.shape == (num_steps,) and not array.flags.writeable
            times = grid.times[:-1].tolist()
            assert grid.stds.tolist() == [eta * math.sqrt(t * -grid.dt) for t in times]
            assert list(zip(grid.a_x.tolist(), grid.a_v.tolist())) == [
                _step_coeffs(t, grid.dt, eta) for t in times]


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
        rng = philox(seed, 1)
        if data.draw(st.booleans(), label="one condition"):
            cond = data.draw(st.integers(0, dims.num_classes - 1), label="cond")
        else:
            cond = rng.integers(0, dims.num_classes, size=G)
        if data.draw(st.booleans(), label="train-shaped keep"):
            # as train_step selects them: ceil(fraction K) steps, sorted
            fraction = data.draw(st.floats(0.01, 1.0), label="timestep fraction")
            keep = np.sort(rng.permutation(K)[:math.ceil(fraction * K)])
        else:
            keep = data.draw(st.sets(st.integers(0, K - 1)), label="keep")
        cfg = SdeConfig(num_steps=K, eta=eta, t_min=t_min)
        noise = rng.standard_normal(G * (K + 1) * dims.state_size).reshape(G, K + 1, -1)
        before = noise.copy()

        rollout = sde_sample(p, cond, cfg, noise, keep=keep)
        states, means, stds, log_probs, kept = reference_rollout(p, cond, cfg, noise, keep)
        np.testing.assert_array_equal(noise, before)
        np.testing.assert_array_equal(rollout.states, states)
        np.testing.assert_array_equal(rollout.step_means, means)
        np.testing.assert_array_equal(rollout.grid.stds, stds)
        if eta == 0.0:
            assert rollout.log_probs is None
        else:
            np.testing.assert_array_equal(rollout.log_probs, log_probs)
        np.testing.assert_array_equal(rollout.conditions, np.broadcast_to(cond, (G,)))
        by_step = kept_by_step(rollout)
        assert sorted(by_step) == sorted(kept)
        for k, acts in kept.items():
            assert len(by_step[k]) == len(acts)
            for got, want in zip(by_step[k], acts):
                np.testing.assert_array_equal(got, want)
        arrays = [a for acts in by_step.values() for a in acts]
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, noise)
            assert not any(np.shares_memory(a, b) for b in arrays[:i])
        steps = sorted(kept)
        if steps:
            assert rollout.kept_steps.tolist() == steps
            acts = rollout.kept_activations()
            for layer, got in enumerate(acts):
                np.testing.assert_array_equal(
                    got, np.concatenate([kept[k][layer] for k in steps]))
                assert layer == 0 or np.shares_memory(got, by_step[steps[0]][layer])


class TestTransitionLogProbs:
    """``eval_step`` over a rollout's kept transitions: the recorded
    transitions re-evaluated under a policy."""

    def test_self_consistency(self):
        p = small_policy(13)
        cfg = SdeConfig(num_steps=8, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, philox(55)), keep=range(8))
        lp = reevaluated(p, rollout)
        np.testing.assert_allclose(lp, rollout.log_probs, atol=1e-10)

    def test_subset_selection(self):
        p = small_policy(13)
        cfg = SdeConfig(num_steps=8, eta=0.5)
        rollout = sde_sample(p, 1, cfg, noise_block(p, cfg, philox(56)), keep=[1, 4, 6])
        lp = reevaluated(p, rollout)
        np.testing.assert_allclose(lp, rollout.log_probs[:, [1, 4, 6]], atol=1e-10)

    def test_perturbed_policy_differs(self):
        p = small_policy(14)
        cfg = SdeConfig(num_steps=4, eta=0.5)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, philox(57)), keep=range(4))
        q = copy_policy(p)
        q.net.weights[0][0, 0] += 0.05
        assert not np.allclose(reevaluated(q, rollout), rollout.log_probs)

    def test_hand_built_single_step(self):
        # constant-velocity policy, one step, known closed-form density
        dims = PolicyDims(frames=1, frame_dim=1, num_classes=1, embed_dim=1)
        c = 0.5
        p = constant_velocity(init_flow_policy(dims, hidden=(2,), rng=RandomSource(1)), c)
        cfg = SdeConfig(num_steps=1, eta=0.5, t_min=0.2)
        rollout = sde_sample(p, 0, cfg, noise_block(p, cfg, philox(60)), keep=[0])
        # dt = -0.8, t = 1, sigma = 0.5: a_x = 1 + dt*eta^2*t/2 = 0.9
        # a_v = dt*(1 + eta^2*t*(1-t)/2) = dt, mean = 0.9 x - 0.8 c
        x0 = rollout.states[0, 0, 0]
        mean = 0.9 * x0 - 0.8 * c
        std = 0.5 * 1.0 * math.sqrt(0.8)
        expected = -0.5 * math.log(2 * math.pi * std**2) - (
            rollout.states[0, 1, 0] - mean
        ) ** 2 / (2 * std**2)
        np.testing.assert_allclose(rollout.step_means[0, 0], [mean], rtol=1e-12)
        np.testing.assert_allclose(rollout.grid.stds[0], std, rtol=1e-12)
        assert abs(reevaluated(p, rollout)[0, 0] - expected) < 1e-10


class TestToyDataset:
    def test_shapes_and_classes(self):
        ds = ToyDataset(PolicyDims(frames=6, frame_dim=2, num_classes=4, embed_dim=2))
        frames, conds = ds.sample_batch(philox(71), 10)
        assert frames.shape == (10, 6, 2)
        assert conds.shape == (10,)
        assert ((conds >= 0) & (conds < 4)).all()

    def test_final_frame_hits_class_angle_without_jitter(self):
        dims = PolicyDims(frames=5, frame_dim=2, num_classes=8, embed_dim=2)
        ds = ToyDataset(dims, jitter=0.0)
        frames, conds = ds.sample_batch(philox(72), 20)
        for f, c in zip(frames, conds):
            np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
            angle = math.atan2(f[-1, 1], f[-1, 0]) % (2 * math.pi)
            target = 2.0 * math.pi * c / dims.num_classes
            np.testing.assert_allclose(angle, target % (2 * math.pi), atol=1e-9)

    def test_rotation_rate(self):
        dims = PolicyDims(frames=4, frame_dim=2, num_classes=2, embed_dim=2)
        ds = ToyDataset(dims, omega=0.3, jitter=0.0)
        frames, _ = ds.sample_batch(philox(73), 3)
        for f in frames:
            angles = np.unwrap(np.arctan2(f[:, 1], f[:, 0]))
            np.testing.assert_allclose(np.diff(angles), 0.3, atol=1e-9)

    def test_requires_planar_frames(self):
        with pytest.raises(DomainError):
            ToyDataset(PolicyDims(frames=4, frame_dim=3, num_classes=2, embed_dim=2))


class TestSdeMarginal:
    """The sampler's step constants (``SdeConfig.grid``) driven by the toy
    task's optimal velocity v* from N(0, I) at t = 1 should end near the
    known marginal at t_min: x - (1 - t_min) m_c with std s_{t_min}.  The
    Euler-Maruyama steps leave extra noise there that shrinks as K grows;
    at eta = 0 the error is small at every K.

    v* is affine in x, so each step maps N(mean, var I) to another
    Gaussian: the mean through the step and the variance through the
    step's squared slope plus its noise variance.  That exact law is
    checked against 20,000 x 16 sampled draws at the default K, and the
    errors are read from it, free of sampling error (the error at eta 1,
    K = 256 is 2.89%, within one standard error of the draws from 3%)."""

    @staticmethod
    def exact_law(eta, num_steps):
        """Per class and coordinate, the mean of x_{t_min} - (1 - t_min)
        m_c and the std of x_{t_min} under the sampler's steps with v*."""
        dataset, grid = ToyDataset(), SdeConfig(num_steps, eta).grid
        classes = np.arange(dataset.dims.num_classes)
        mean, var = np.zeros_like(toy_class_means(dataset)), 1.0
        for t, std, a_x, a_v in zip(grid.times[:-1].tolist(), grid.stds.tolist(),
                                    grid.a_x.tolist(), grid.a_v.tolist()):
            def step(x):
                return a_x * x + a_v * optimal_velocity(dataset, x, t, classes)
            slope = step(mean + 1.0) - step(mean)  # the map is affine
            mean, var = step(mean), slope**2 * var + std**2
        return mean - (1.0 - DEFAULT_T_MIN) * toy_class_means(dataset), np.sqrt(var)

    def test_helpers_match_the_dataset(self):
        dataset = ToyDataset()
        assert toy_marginal_std(dataset, DEFAULT_T_MIN) == pytest.approx(0.041136, abs=5e-7)
        frames, conds = replace(dataset, jitter=0.0).sample_batch(philox(3), 40)
        np.testing.assert_allclose(frames.reshape(40, -1), toy_class_means(dataset)[conds],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_sampled_draws_follow_the_exact_law(self, eta):
        dataset, config = ToyDataset(), SdeConfig(eta=eta)
        grid = config.grid
        classes = np.arange(dataset.dims.num_classes)  # broadcasts over the first axis
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2_500, *toy_class_means(dataset).shape))
        for t, std, a_x, a_v in zip(grid.times[:-1].tolist(), grid.stds.tolist(),
                                    grid.a_x.tolist(), grid.a_v.tolist()):
            x = a_x * x + a_v * optimal_velocity(dataset, x, t, classes)
            x += std * rng.standard_normal(x.shape)
        resid = x - (1.0 - config.t_min) * toy_class_means(dataset)
        mean, std = self.exact_law(eta, config.num_steps)
        # 2,500 draws per class and coordinate: each mean's standard error
        # is 2% of the std; the std of all 320,000 has one of 0.125%
        assert np.abs(resid.mean(axis=0) - mean).max() <= 5 * 0.02 * std.max()
        assert resid.std() == pytest.approx(std.mean(), rel=0.01)

    def test_error_falls_with_steps_to_the_marginal(self):
        # relative errors at K = 16 / 64 / 256: eta 0 -1.15 / -0.36 / -0.09%,
        # eta 0.5 +28.5 / +4.2 / +0.90%, eta 1 +91.2 / +13.7 / +2.89%
        s_min = toy_marginal_std(ToyDataset(), DEFAULT_T_MIN)
        for eta in (0.0, 0.5, 1.0):
            laws = [self.exact_law(eta, k) for k in (16, 64, 256)]
            for mean, _ in laws:
                np.testing.assert_allclose(mean, 0.0, rtol=0, atol=1e-12)
            errors = [np.abs(std / s_min - 1.0).max() for _, std in laws]
            assert errors[0] > errors[1] > errors[2]
            assert errors[2] <= 0.03
            if eta == 0.0:
                assert max(errors) <= 0.015


class TestPretraining:
    def test_zero_steps_returns_unchanged_policy(self):
        p = small_policy(20)
        ds = ToyDataset(SMALL)
        trained, losses = drain(pretrain_flow_matching(p, ds, 0, RandomSource(0),
                                                       PRETRAIN["batch_size"],
                                                       PRETRAIN["learning_rate"]), p)
        assert losses == []
        np.testing.assert_array_equal(p.vector, trained.vector)

    def test_step_k_draws_from_its_jumped_stream(self, monkeypatch):
        # step k's batch, noise and flow times are, in that order, the
        # first draws of the loop's child stream (0,) jumped k times
        residual, seen = flow_policy._flow_matching_residual, []

        def spy(policy, frames, conds, t, eps):
            seen.append((frames, conds, t, eps))
            return residual(policy, frames, conds, t, eps)

        monkeypatch.setattr(flow_policy, "_flow_matching_residual", spy)
        p, ds, B = small_policy(21), ToyDataset(SMALL), 8
        drain(pretrain_flow_matching(p, ds, 3, RandomSource(5, (101,)), B, 1e-3), p)
        assert len(seen) == 3
        for k, (frames, conds, t, eps) in enumerate(seen):
            stream = philox(5, 101, 0, jumps=k)
            want_frames, want_conds = ds.sample_batch(stream, B)
            np.testing.assert_array_equal(frames, want_frames)
            np.testing.assert_array_equal(conds, want_conds)
            np.testing.assert_array_equal(
                eps, stream.standard_normal(B * SMALL.state_size).reshape(B, -1))
            np.testing.assert_array_equal(t, stream.random(B))

    def test_set_up_takes_constant_memory(self):
        # a run of 10**12 steps keeps one key: what it allocates before
        # its first draw does not grow with the step count
        class FirstDraw(Exception):
            pass

        class Probe:
            def sample_batch(self, rng, n):
                self.before_first_draw = tracemalloc.get_traced_memory()[1]
                raise FirstDraw

        probe, policy = Probe(), small_policy(22)
        tracemalloc.start()
        try:
            with pytest.raises(FirstDraw):
                next(pretrain_flow_matching(policy, probe, 10**12, RandomSource(5),
                                            batch_size=16, learning_rate=1e-3))
        finally:
            tracemalloc.stop()
        assert probe.before_first_draw < 64 * 1024

    def test_point_mass_residual_shrinks(self):
        dims = PolicyDims(frames=2, frame_dim=2, num_classes=1, embed_dim=2)
        p = init_flow_policy(dims, hidden=(32,), rng=RandomSource(30))
        star = np.array([[[1.0, 0.0], [0.0, 1.0]]])

        class PointMass:
            def sample_batch(self, rng, n):
                return np.repeat(star, n, axis=0), np.zeros(n, dtype=np.int64)

        ds = PointMass()

        def residual(policy):
            rng = philox(999)
            frames = np.repeat(star, 256, axis=0)
            conds = np.zeros(256, dtype=np.int64)
            eps = rng.standard_normal(256 * dims.state_size).reshape(256, -1)
            t = rng.random(256)
            return flow_matching_loss(policy, frames, conds, t, eps)

        before = residual(p)
        trained, _ = drain(pretrain_flow_matching(p, ds, 1500, RandomSource(31),
                                                  batch_size=32, learning_rate=3e-3), p)
        assert residual(trained) < 0.1 * before

    def test_held_out_loss_improves_majority_of_seeds(self):
        dims = PolicyDims(frames=4, frame_dim=2, num_classes=4, embed_dim=4)
        ds = ToyDataset(dims)
        wins = 0
        for seed in range(5):
            p = init_flow_policy(dims, hidden=(32,), rng=RandomSource(seed))
            eval_rng = philox(10_000 + seed)
            frames, conds = ds.sample_batch(eval_rng, 128)
            eps = eval_rng.standard_normal(128 * dims.state_size).reshape(128, -1)
            t = eval_rng.random(128)
            before = flow_matching_loss(p, frames, conds, t, eps)
            trained, _ = drain(pretrain_flow_matching(p, ds, 2000, RandomSource(seed + 50),
                                                      PRETRAIN["batch_size"],
                                                      PRETRAIN["learning_rate"]), p)
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

