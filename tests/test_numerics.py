"""Substrate checks: the flat parameter layout, forward/backward exactness,
Adam arithmetic, the random source's reproducibility contract, and
checkpoint round-trips."""

import math

import numpy as np
import pytest
from helpers import finite_difference, naive_mlp_eval, rel_err_ok
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage import kernels
from flowstage.errors import DomainError, ShapeError
from flowstage.flow_policy import PolicyDims, init_flow_policy, load_policy, save_policy
from flowstage.numerics import (
    MlpParams,
    RandomSource,
    _child_pool,
    _philox_keys,
    adam_init,
    adam_step_arrays,
    init_mlp,
    join_params,
    mlp_backward,
    mlp_backward_batch,
    mlp_forward,
    mlp_forward_batch,
    param_layout,
    read_checkpoint,
    split_params,
    write_checkpoint,
)


def _linear_net(w, b):
    w = np.asarray(w, dtype=np.float64)
    return MlpParams((w.shape[1], w.shape[0]), np.concatenate([w.ravel(), b]))


class TestFlatLayout:
    def test_layout_order_and_shapes(self):
        assert param_layout((3, 4, 2), [("emb", (5, 2))]) == [
            ("w0", (4, 3)), ("b0", (4,)), ("w1", (2, 4)), ("b1", (2,)), ("emb", (5, 2))]

    def test_layer_arrays_are_views_of_the_vector(self):
        params = init_mlp((3, 4, 2), RandomSource(1))
        for a in params.weights + params.biases:
            assert np.shares_memory(a, params.vector)
        params.weights[1][0, 2] = 7.0
        assert params.vector[3 * 4 + 4 + 2] == 7.0

    def test_split_and_join_are_inverse(self):
        layout = param_layout((2, 3), [("e", (2, 2))])
        vector = RandomSource(2).gaussian(6 + 3 + 4)
        views = split_params(vector, layout)
        np.testing.assert_array_equal(join_params(views, layout), vector)
        with pytest.raises(ShapeError):
            split_params(vector[:-1], layout)
        with pytest.raises(ShapeError):
            join_params(dict(views, e=np.zeros((4, 1))), layout)


SMALL = PolicyDims(frames=2, frame_dim=2, num_classes=3, embed_dim=2)


class TestMlpForward:
    def test_identity_single_layer(self):
        params = _linear_net(np.eye(2), np.zeros(2))
        out, _ = mlp_forward(params, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0])

    def test_all_zero_params_give_zero_output(self):
        rng = RandomSource(3)
        params = init_mlp((4, 6, 3), rng)
        zeroed = MlpParams(params.layer_sizes, np.zeros_like(params.vector))
        out, _ = mlp_forward(zeroed, rng.gaussian(4))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_matches_naive_reevaluation(self):
        rng = RandomSource(11)
        params = init_mlp((2, 4, 2), rng)
        x = rng.gaussian(2)
        out, _ = mlp_forward(params, x)
        np.testing.assert_allclose(out, naive_mlp_eval(params.weights, params.biases, x),
                                   rtol=1e-12)

    def test_wrong_input_size_raises(self):
        params = init_mlp((3, 2), RandomSource(0))
        with pytest.raises(ShapeError):
            mlp_forward(params, np.zeros(4))

    def test_batch_matches_single(self):
        rng = RandomSource(7)
        params = init_mlp((5, 8, 4), rng)
        X = rng.gaussian(15).reshape(3, 5)
        out_b, _ = mlp_forward_batch(params, X)
        for i in range(3):
            out, _ = mlp_forward(params, X[i])
            np.testing.assert_allclose(out_b[i], out, rtol=1e-12)


class TestKernelForward:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.lists(st.integers(1, 40), min_size=2, max_size=4),
           st.integers(0, 2**32))
    def test_equals_matmul_bias_tanh_and_leaves_inputs_alone(self, batch, sizes, seed):
        rng = RandomSource(seed)
        params = init_mlp(sizes, rng)
        params.vector[:] = rng.gaussian(params.vector.size)
        inputs = rng.gaussian(batch * sizes[0]).reshape(batch, sizes[0])
        before = inputs.copy()
        acts = kernels.forward(params.weights, params.biases, inputs)
        assert acts[0] is inputs
        np.testing.assert_array_equal(inputs, before)
        expected = inputs
        for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
            expected = expected @ w.T + b
            if layer < len(params.weights) - 1:
                expected = np.tanh(expected)
            np.testing.assert_array_equal(acts[layer + 1], expected)
        for i, a in enumerate(acts[1:]):
            assert not any(np.shares_memory(a, other) for other in acts[:i + 1])


class TestMlpBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = RandomSource(5)
        params = init_mlp((3, 5, 2), rng)
        _, cache = mlp_forward(params, rng.gaussian(3))
        grad, gx = mlp_backward(params, cache, np.zeros(2))
        np.testing.assert_array_equal(grad, np.zeros_like(params.vector))
        np.testing.assert_array_equal(gx, np.zeros(3))

    def test_linear_layer_analytic(self):
        rng = RandomSource(6)
        w = rng.gaussian(6).reshape(2, 3)
        params = _linear_net(w, rng.gaussian(2))
        x = rng.gaussian(3)
        g = rng.gaussian(2)
        _, cache = mlp_forward(params, x)
        grad, gx = mlp_backward(params, cache, g)
        grads = MlpParams(params.layer_sizes, grad)
        np.testing.assert_allclose(grads.weights[0], np.outer(g, x), rtol=1e-12)
        np.testing.assert_allclose(grads.biases[0], g, rtol=1e-12)
        np.testing.assert_allclose(gx, w.T @ g, rtol=1e-12)

    def test_finite_difference_all_params(self):
        rng = RandomSource(13)
        params = init_mlp((2, 4, 2), rng)
        x = rng.gaussian(2)
        probe = rng.gaussian(2)  # scalar objective: probe . output

        _, cache = mlp_forward(params, x)
        grad, _ = mlp_backward(params, cache, probe)

        def objective(vector):
            out, _ = mlp_forward(MlpParams(params.layer_sizes, vector), x)
            return float(probe @ out)

        fd = finite_difference(objective, params.vector.copy(), h=1e-5)
        assert rel_err_ok(grad, fd, rtol=1e-4, atol=1e-8).all()

    def test_input_gradient_finite_difference(self):
        rng = RandomSource(14)
        params = init_mlp((3, 5, 2), rng)
        x = rng.gaussian(3)
        probe = rng.gaussian(2)
        _, cache = mlp_forward(params, x)
        _, gx = mlp_backward(params, cache, probe)

        def objective(vector):
            out, _ = mlp_forward(params, vector)
            return float(probe @ out)

        fd = finite_difference(objective, x.copy(), h=1e-5)
        assert rel_err_ok(gx, fd, rtol=1e-4, atol=1e-8).all()

    def test_stale_cache_raises(self):
        rng = RandomSource(15)
        params = init_mlp((3, 5, 2), rng)
        other = init_mlp((3, 4, 2), rng)
        _, cache = mlp_forward(other, rng.gaussian(3))
        with pytest.raises(ShapeError):
            mlp_backward(params, cache, np.zeros(2))

    def test_batch_backward_matches_summed_singles(self):
        rng = RandomSource(16)
        params = init_mlp((4, 6, 3), rng)
        X = rng.gaussian(8).reshape(2, 4)
        up = rng.gaussian(6).reshape(2, 3)
        _, cache_b = mlp_forward_batch(params, X)
        grad_b, gx_b = mlp_backward_batch(params, cache_b, up)
        acc = np.zeros_like(params.vector)
        for i in range(2):
            _, cache = mlp_forward(params, X[i])
            g, gx = mlp_backward(params, cache, up[i])
            acc += g
            np.testing.assert_allclose(gx_b[i], gx, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(acc, grad_b, rtol=1e-10, atol=1e-14)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        rng = RandomSource(21)
        params = init_mlp((3, 4, 2), rng)
        state = adam_init(params.vector, learning_rate=0.1)
        new_vector, new_state = adam_step_arrays(params.vector,
                                                 np.zeros_like(params.vector), state)
        np.testing.assert_array_equal(new_vector, params.vector)
        assert new_state.step_count == 1

    def test_first_step_is_signed_unit_step(self):
        # with m_hat = g and v_hat = g^2 the first update is
        # -lr * g / (|g| + eps), i.e. about -lr * sign(g)
        lr = 0.01
        g = np.array([0.3, -2.0, 0.0007])
        p = np.zeros(3)
        state = adam_init(p, learning_rate=lr)
        new_p, _ = adam_step_arrays(p, g, state)
        expected = -lr * g / (np.abs(g) + state.epsilon)
        np.testing.assert_allclose(new_p, expected, rtol=1e-12)
        np.testing.assert_allclose(new_p, -lr * np.sign(g), rtol=1e-4)

    def test_deterministic(self):
        rng = RandomSource(22)
        params = init_mlp((2, 3, 2), rng)
        grad = np.ones_like(params.vector)
        state = adam_init(params.vector, learning_rate=0.05)
        out1 = adam_step_arrays(params.vector, grad, state)
        out2 = adam_step_arrays(params.vector, grad, state)
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_update_is_pure(self):
        rng = RandomSource(23)
        params, grad = rng.gaussian(9), rng.gaussian(9)
        state = adam_init(params, learning_rate=0.05)
        state = adam_step_arrays(params, grad, state)[1]
        before = [a.copy() for a in (params, grad, state.m, state.v)]
        new_params, new_state = adam_step_arrays(params, grad, state)
        for a, b in zip((params, grad, state.m, state.v), before):
            np.testing.assert_array_equal(a, b)
        assert state.step_count == 1 and new_state.step_count == 2
        assert not np.shares_memory(new_params, params)

    def test_flat_update_matches_per_array_update(self):
        # the fused update is the per-array Adam formula, element by element
        rng = RandomSource(24)
        params = init_mlp((3, 4, 2), rng)
        grads = [rng.gaussian(params.vector.size) for _ in range(3)]
        state = adam_init(params.vector, learning_rate=0.01)
        vector = params.vector
        arrays = [a.copy() for a in params.weights + params.biases]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.epsilon
        for t, grad in enumerate(grads, start=1):
            vector, state = adam_step_arrays(vector, grad, state)
            g_view = MlpParams(params.layer_sizes, grad)
            for i, g in enumerate(g_view.weights + g_view.biases):
                m, v = moments[i]
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                arrays[i] = arrays[i] - lr * (m / (1.0 - b1**t)) / (
                    np.sqrt(v / (1.0 - b2**t)) + eps)
                moments[i] = (m, v)
            net = MlpParams(params.layer_sizes, vector)
            for a, b in zip(arrays, net.weights + net.biases):
                np.testing.assert_array_equal(a, b)

    def test_non_finite_gradient_rejected(self):
        p = np.zeros(2)
        state = adam_init(p)
        with pytest.raises(DomainError):
            adam_step_arrays(p, np.array([1.0, np.nan]), state)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(2)
        state = adam_init(p)
        with pytest.raises(ShapeError):
            adam_step_arrays(p, np.zeros(3), state)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(99).gaussian(50)
        b = RandomSource(99).gaussian(50)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).gaussian(50)
        b = RandomSource(2).gaussian(50)
        assert not np.array_equal(a, b)

    def test_streams_are_disjoint_and_reproducible(self):
        root = RandomSource(7)
        a = root.stream(0).gaussian(10)
        b = root.stream(1).gaussian(10)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, RandomSource(7).stream(0).gaussian(10))

    def test_law_of_large_numbers(self):
        draws = RandomSource(123).gaussian(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_invalid_count(self):
        with pytest.raises(DomainError):
            RandomSource(0).gaussian(0)


SEEDS = [0, 2**32 - 1, 2**32, 2**40, 2**130]
IDS = st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**33 + 5]),
                         st.integers(0, 2**40)), max_size=3)


class TestGaussianStreams:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SEEDS), IDS, IDS, st.integers(1, 70), st.integers(1, 9))
    def test_rows_equal_child_streams(self, seed, spawn, ids, count, n):
        root = RandomSource(seed, tuple(spawn))
        block = root.gaussian_streams(ids, count, n)
        assert block.shape == (count, n)
        for i in range(count):
            np.testing.assert_array_equal(block[i], root.stream(*ids, i).gaussian(n))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SEEDS), IDS, st.integers(1, 70))
    def test_keys_equal_seed_sequence(self, seed, spawn_key, count):
        keys = _philox_keys(_child_pool(seed, tuple(spawn_key)), count)
        expected = [np.random.SeedSequence(seed, spawn_key=(*spawn_key, i))
                    .generate_state(2, np.uint64) for i in range(count)]
        np.testing.assert_array_equal(keys, expected)

    @pytest.mark.parametrize("ids", [(-1,), (3, -2)])
    def test_negative_id_rejected(self, ids):
        with pytest.raises(ValueError):
            RandomSource(5).gaussian_streams(ids, 4, 2)
        with pytest.raises(ValueError):
            RandomSource(5).stream(*ids, 0)

    @pytest.mark.parametrize("count, n", [(0, 3), (3, 0)])
    def test_invalid_sizes(self, count, n):
        with pytest.raises(DomainError):
            RandomSource(0).gaussian_streams((), count, n)

    def test_leaves_the_parent_stream_alone(self):
        root = RandomSource(8)
        root.gaussian_streams((1,), 5, 3)
        np.testing.assert_array_equal(root.gaussian(4), RandomSource(8).gaussian(4))


class TestAtStream:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SEEDS), IDS, IDS.filter(len), st.integers(1, 40),
           st.integers(1, 20))
    def test_draws_equal_child_stream(self, seed, spawn, ids, high, k):
        root = RandomSource(seed, tuple(spawn))
        assert (root.at_stream(*ids).integers(0, high)
                == root.stream(*ids).integers(0, high))
        np.testing.assert_array_equal(root.at_stream(*ids).permutation(k),
                                      root.stream(*ids).permutation(k))

    def test_each_call_starts_afresh(self):
        # the scratch generator is shared: a call resets whatever an earlier
        # call or gaussian_streams drew from it
        root = RandomSource(4)
        first = root.at_stream(2, 9).permutation(16)
        root.at_stream(0, 9).integers(0, 8, size=50)
        root.gaussian_streams((1, 9), 3, 5)
        np.testing.assert_array_equal(root.at_stream(2, 9).permutation(16), first)
        np.testing.assert_array_equal(root.gaussian(4), RandomSource(4).gaussian(4))

    @pytest.mark.parametrize("ids", [(), (-1,), (3, -2)])
    def test_bad_ids_rejected(self, ids):
        with pytest.raises(ValueError):
            RandomSource(5).at_stream(*ids)


class TestCheckpoints:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        policy = init_flow_policy(SMALL, hidden=(7,), rng=RandomSource(31))
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_policy(p1, policy, {"note": "x"})
        loaded, meta = load_policy(p1)
        save_policy(p2, loaded, {"note": meta["note"]})
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_params_equal(self, tmp_path):
        # the checkpoint holds one array per layout entry, named as before
        policy = init_flow_policy(SMALL, hidden=(6, 5), rng=RandomSource(32))
        path = tmp_path / "net.ckpt"
        save_policy(path, policy)
        _, arrays = read_checkpoint(path)
        assert sorted(arrays) == ["b0", "b1", "b2", "cond_emb", "w0", "w1", "w2"]
        np.testing.assert_array_equal(arrays["cond_emb"], policy.cond_emb)
        for l, (w, b) in enumerate(zip(policy.net.weights, policy.net.biases)):
            np.testing.assert_array_equal(arrays[f"w{l}"], w)
            np.testing.assert_array_equal(arrays[f"b{l}"], b)

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, {"v": 1}, {"m": np.arange(3.0)})
        old = path.read_bytes()
        # the header is written before the array that cannot be converted
        with pytest.raises(ValueError):
            write_checkpoint(path, {"v": 2}, {"m": np.zeros(3), "z": np.array(["x"])})
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, {}, {"m": np.arange(3.0)})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DomainError, match="trailing"):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DomainError):
            read_checkpoint(path)

    def test_generic_checkpoint_meta(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, {"alpha": 1.5}, {"m": np.arange(6.0).reshape(2, 3)})
        meta, arrays = read_checkpoint(path)
        assert meta == {"alpha": 1.5}
        np.testing.assert_array_equal(arrays["m"], np.arange(6.0).reshape(2, 3))


class TestValidation:
    def test_non_finite_params_rejected(self):
        with pytest.raises(DomainError):
            _linear_net(np.array([[np.inf, 0.0]]), np.zeros(1))

    def test_mismatched_layer_sizes_rejected(self):
        with pytest.raises(ShapeError):
            MlpParams((3, 2), np.zeros(2 * 4 + 2))

    def test_gradient_exactness_random_nets(self):
        # every analytic partial matches central differences on small nets
        for seed in range(3):
            rng = RandomSource(1000 + seed)
            sizes = (3, 5, 4, 2)
            params = init_mlp(sizes, rng)
            x = rng.gaussian(3)
            probe = rng.gaussian(2)
            _, cache = mlp_forward(params, x)
            grad, _ = mlp_backward(params, cache, probe)

            def objective(vector):
                out, _ = mlp_forward(MlpParams(sizes, vector), x)
                return float(probe @ out)

            fd = finite_difference(objective, params.vector.copy(), h=1e-5)
            assert rel_err_ok(grad, fd, rtol=1e-4, atol=1e-8).all()
