"""Substrate checks: the flat parameter layout, forward/backward exactness,
Adam arithmetic, the random source's reproducibility contract, and
checkpoint round-trips."""

import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    finite_difference,
    gaussian_block,
    naive_mlp_eval,
    philox,
    rel_err_ok,
    reshape_in_header,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from flowstage import kernels
from flowstage.errors import DomainError, ShapeError
from flowstage.flow_policy import PolicyDims, init_flow_policy, load_policy, save_policy
from flowstage.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    KeyedGenerator,
    MlpParams,
    RandomSource,
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
        params = init_mlp((3, 4, 2), philox(1))
        for a in params.weights + params.biases:
            assert np.shares_memory(a, params.vector)
        params.weights[1][0, 2] = 7.0
        assert params.vector[3 * 4 + 4 + 2] == 7.0

    def test_split_and_join_are_inverse(self):
        layout = param_layout((2, 3), [("e", (2, 2))])
        vector = philox(2).standard_normal(6 + 3 + 4)
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
        rng = philox(3)
        params = init_mlp((4, 6, 3), rng)
        zeroed = MlpParams(params.layer_sizes, np.zeros_like(params.vector))
        out, _ = mlp_forward(zeroed, rng.standard_normal(4))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_matches_naive_reevaluation(self):
        rng = philox(11)
        params = init_mlp((2, 4, 2), rng)
        x = rng.standard_normal(2)
        out, _ = mlp_forward(params, x)
        np.testing.assert_allclose(out, naive_mlp_eval(params.weights, params.biases, x),
                                   rtol=1e-12)

    def test_wrong_input_size_raises(self):
        params = init_mlp((3, 2), philox(0))
        with pytest.raises(ShapeError):
            mlp_forward(params, np.zeros(4))

    def test_batch_matches_single(self):
        rng = philox(7)
        params = init_mlp((5, 8, 4), rng)
        X = rng.standard_normal(15).reshape(3, 5)
        out_b, _ = mlp_forward_batch(params, X)
        for i in range(3):
            out, _ = mlp_forward(params, X[i])
            np.testing.assert_allclose(out_b[i], out, rtol=1e-12)


class TestKernelForward:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.lists(st.integers(1, 40), min_size=2, max_size=4),
           st.integers(0, 2**32))
    def test_equals_matmul_bias_tanh_and_leaves_inputs_alone(self, batch, sizes, seed):
        rng = philox(seed)
        params = init_mlp(sizes, rng)
        params.vector[:] = rng.standard_normal(params.vector.size)
        inputs = rng.standard_normal(batch * sizes[0]).reshape(batch, sizes[0])
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


    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 256), st.lists(st.integers(1, 70), min_size=2, max_size=4),
           st.integers(0, 2**32))
    def test_out_buffers_give_the_allocating_result(self, batch, sizes, seed):
        rng = philox(seed)
        params = init_mlp(sizes, rng)
        params.vector[:] = rng.standard_normal(params.vector.size)
        weights = params.vector.copy()
        inputs = rng.standard_normal(batch * sizes[0]).reshape(batch, sizes[0])
        before = inputs.copy()
        out = [np.full((batch, size), np.nan) for size in sizes[1:]]
        acts = kernels.forward(params.weights, params.biases, inputs, out=out)
        assert acts[0] is inputs
        assert all(a is buf for a, buf in zip(acts[1:], out))
        for got, want in zip(acts, kernels.forward(params.weights, params.biases, inputs)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(inputs, before)
        np.testing.assert_array_equal(params.vector, weights)


class TestMlpBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = philox(5)
        params = init_mlp((3, 5, 2), rng)
        _, cache = mlp_forward(params, rng.standard_normal(3))
        grad, gx = mlp_backward(params, cache, np.zeros(2))
        np.testing.assert_array_equal(grad, np.zeros_like(params.vector))
        np.testing.assert_array_equal(gx, np.zeros(3))

    def test_linear_layer_analytic(self):
        rng = philox(6)
        w = rng.standard_normal(6).reshape(2, 3)
        params = _linear_net(w, rng.standard_normal(2))
        x = rng.standard_normal(3)
        g = rng.standard_normal(2)
        _, cache = mlp_forward(params, x)
        grad, gx = mlp_backward(params, cache, g)
        grads = MlpParams(params.layer_sizes, grad)
        np.testing.assert_allclose(grads.weights[0], np.outer(g, x), rtol=1e-12)
        np.testing.assert_allclose(grads.biases[0], g, rtol=1e-12)
        np.testing.assert_allclose(gx, w.T @ g, rtol=1e-12)

    def test_finite_difference_all_params(self):
        rng = philox(13)
        params = init_mlp((2, 4, 2), rng)
        x = rng.standard_normal(2)
        probe = rng.standard_normal(2)  # scalar objective: probe . output

        _, cache = mlp_forward(params, x)
        grad, _ = mlp_backward(params, cache, probe)

        def objective(vector):
            out, _ = mlp_forward(MlpParams(params.layer_sizes, vector), x)
            return float(probe @ out)

        fd = finite_difference(objective, params.vector.copy(), h=1e-5)
        assert rel_err_ok(grad, fd, rtol=1e-4, atol=1e-8).all()

    def test_input_gradient_finite_difference(self):
        rng = philox(14)
        params = init_mlp((3, 5, 2), rng)
        x = rng.standard_normal(3)
        probe = rng.standard_normal(2)
        _, cache = mlp_forward(params, x)
        _, gx = mlp_backward(params, cache, probe)

        def objective(vector):
            out, _ = mlp_forward(params, vector)
            return float(probe @ out)

        fd = finite_difference(objective, x.copy(), h=1e-5)
        assert rel_err_ok(gx, fd, rtol=1e-4, atol=1e-8).all()

    def test_stale_cache_raises(self):
        rng = philox(15)
        params = init_mlp((3, 5, 2), rng)
        other = init_mlp((3, 4, 2), rng)
        _, cache = mlp_forward(other, rng.standard_normal(3))
        with pytest.raises(ShapeError):
            mlp_backward(params, cache, np.zeros(2))

    def test_batch_backward_matches_summed_singles(self):
        rng = philox(16)
        params = init_mlp((4, 6, 3), rng)
        X = rng.standard_normal(8).reshape(2, 4)
        up = rng.standard_normal(6).reshape(2, 3)
        _, cache_b = mlp_forward_batch(params, X)
        grad_b, gx_b = mlp_backward_batch(params, cache_b, up)
        acc = np.zeros_like(params.vector)
        for i in range(2):
            _, cache = mlp_forward(params, X[i])
            g, gx = mlp_backward(params, cache, up[i])
            acc += g
            np.testing.assert_allclose(gx_b[i], gx, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(acc, grad_b, rtol=1e-10, atol=1e-14)

    def test_writes_into_a_given_gradient_slice(self):
        rng = philox(17)
        params = init_mlp((4, 6, 3), rng)
        _, cache = mlp_forward_batch(params, rng.standard_normal(20).reshape(5, 4))
        up = rng.standard_normal(15).reshape(5, 3)
        grad, gx = mlp_backward_batch(params, cache, up)
        whole = np.full(params.vector.size + 3, np.nan)
        got, gx_got = mlp_backward_batch(params, cache, up, whole[:-3])
        assert got.base is whole
        np.testing.assert_array_equal(whole[:-3], grad)
        np.testing.assert_array_equal(gx_got, gx)
        assert np.isnan(whole[-3:]).all()
        with pytest.raises(ShapeError):
            mlp_backward_batch(params, cache, up, whole)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        rng = philox(21)
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
        expected = -lr * g / (np.abs(g) + ADAM_EPSILON)
        np.testing.assert_allclose(new_p, expected, rtol=1e-12)
        np.testing.assert_allclose(new_p, -lr * np.sign(g), rtol=1e-4)

    def test_deterministic(self):
        rng = philox(22)
        params = init_mlp((2, 3, 2), rng)
        grad = np.ones_like(params.vector)
        state = adam_init(params.vector, learning_rate=0.05)
        out1 = adam_step_arrays(params.vector, grad, state)
        out2 = adam_step_arrays(params.vector, grad, state)
        np.testing.assert_array_equal(out1[0], out2[0])

    def test_update_is_pure(self):
        rng = philox(23)
        params, grad = rng.standard_normal(9), rng.standard_normal(9)
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
        rng = philox(24)
        params = init_mlp((3, 4, 2), rng)
        grads = [rng.standard_normal(params.vector.size) for _ in range(3)]
        state = adam_init(params.vector, learning_rate=0.01)
        vector = params.vector
        arrays = [a.copy() for a in params.weights + params.biases]
        moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPSILON
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
        state = adam_init(p, learning_rate=1e-3)
        with pytest.raises(DomainError):
            adam_step_arrays(p, np.array([1.0, np.nan]), state)

    def test_shape_mismatch_rejected(self):
        p = np.zeros(2)
        state = adam_init(p, learning_rate=1e-3)
        with pytest.raises(ShapeError):
            adam_step_arrays(p, np.zeros(3), state)


def opened(source, *ids):
    """A new generator at the start of ``source``'s child stream ``ids``."""
    return KeyedGenerator(source.key(*ids)).at(0)


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = opened(RandomSource(99), 0).standard_normal(50)
        b = opened(RandomSource(99), 0).standard_normal(50)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = opened(RandomSource(1), 0).standard_normal(50)
        b = opened(RandomSource(2), 0).standard_normal(50)
        assert not np.array_equal(a, b)

    def test_streams_are_disjoint_and_reproducible(self):
        root = RandomSource(7)
        a = opened(root, 0).standard_normal(10)
        b = opened(root, 1).standard_normal(10)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, opened(RandomSource(7), 0).standard_normal(10))
        np.testing.assert_array_equal(a, philox(7, 0).standard_normal(10))

    def test_law_of_large_numbers(self):
        draws = gaussian_block(RandomSource(123), (0,), 100, 1000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    @pytest.mark.parametrize("make", [lambda: RandomSource(-1),
                                      lambda: RandomSource(0, (2, -1)),
                                      lambda: RandomSource(0).stream(-1),
                                      lambda: RandomSource(0).stream(1, -2)],
                             ids=["seed", "spawn key", "stream", "later stream id"])
    def test_negative_seed_or_id_rejected_at_construction(self, make):
        with pytest.raises(ValueError):
            make()

    def test_construction_builds_no_generator(self, monkeypatch):
        # a source is a seed and a spawn-key prefix
        def refuse(*args, **kwargs):
            raise AssertionError("built a generator")

        for name in ("SeedSequence", "Philox", "Generator"):
            monkeypatch.setattr(np.random, name, refuse)
        child = RandomSource(3, (1,)).stream(2, 2**40)
        assert (child.seed, child.spawn_key) == (3, (1, 2, 2**40))


SEEDS = [0, 2**32 - 1, 2**32, 2**40, 2**130]
IDS = st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**33 + 5]),
                         st.integers(0, 2**40)), max_size=3)


JUMPS = st.one_of(st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**64 + 3]),
                  st.integers(0, 2**70))


class TestGaussianStreams:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SEEDS), IDS, IDS, st.integers(1, 70), st.integers(1, 9), JUMPS)
    def test_rows_equal_child_streams(self, seed, spawn, ids, count, n, jumps):
        root = RandomSource(seed, tuple(spawn))
        block = gaussian_block(root, ids, count, n, jumps)
        assert block.shape == (count, n)
        np.testing.assert_array_equal(
            block, philox(seed, *spawn, *ids, jumps=jumps).standard_normal((count, n)))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(SEEDS), IDS, IDS)
    def test_keys_equal_seed_sequence(self, seed, spawn, ids):
        key = RandomSource(seed, tuple(spawn)).key(*ids)
        expected = np.random.SeedSequence(seed, spawn_key=(*spawn, *ids))
        expected = expected.generate_state(2, np.uint64)
        assert key == expected.tolist() and all(type(word) is int for word in key)

    @pytest.mark.parametrize("ids", [(-1,), (3, -2)])
    def test_negative_id_rejected(self, ids):
        with pytest.raises(ValueError):
            gaussian_block(RandomSource(5), ids, 4, 2)
        with pytest.raises(ValueError):
            RandomSource(5).stream(*ids, 0)

    @pytest.mark.parametrize("count", [1, 16, 64])
    def test_rows_at_group_widths(self, count):
        # 272 draws: a (K + 1) x n noise row of the default sampler; drawn
        # as one block, row i does not depend on how many rows follow it
        block = gaussian_block(RandomSource(9001), (1, 7), count, 272, 5)
        np.testing.assert_array_equal(
            block, philox(9001, 1, 7, jumps=5).standard_normal((count, 272)))
        np.testing.assert_array_equal(
            block, gaussian_block(RandomSource(9001), (1, 7), 64, 272, 5)[:count])

    def test_repeats_across_calls(self):
        root = RandomSource(8)
        first = gaussian_block(root, (1,), 5, 3)
        np.testing.assert_array_equal(gaussian_block(root, (1,), 5, 3), first)
        np.testing.assert_array_equal(gaussian_block(RandomSource(8), (1,), 5, 3), first)


def seed_sequence_keys(seed, spawn_key, *counts):
    """numpy's key of each child ``spawn_key + (j1, j2, ...)``, one
    SeedSequence each, as a ``(*counts, 2)`` array."""
    keys = np.empty((*counts, 2), dtype=np.uint64)
    for js in np.ndindex(*counts):
        seq = np.random.SeedSequence(seed, spawn_key=(*spawn_key, *js))
        keys[js] = seq.generate_state(2, np.uint64)
    return keys


def child_keys(source, ids, *counts):
    """``source.key(*ids, j1, j2, ...)`` for every ``0 <= j_m < counts[m]``,
    as a ``(*counts, 2)`` array, each key first checked to be two
    64-bit ints."""
    keys = np.empty((*counts, 2), dtype=np.uint64)
    for js in np.ndindex(*counts):
        key = source.key(*ids, *js)
        assert len(key) == 2 and all(type(w) is int and 0 <= w < 2**64 for w in key)
        keys[js] = key
    return keys


class TestChildKeys:
    """The Philox keys of child streams, :meth:`RandomSource.key`, equal
    numpy's own SeedSequence keys."""

    KEY_SEEDS = [0, 1, 2**32, 2**40 + 7, 9001, 2**130]

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("count", [0, 1, 16, 64])
    def test_one_level(self, seed, count):
        keys = child_keys(RandomSource(seed), (2, 5), count)
        assert keys.shape == (count, 2) and keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, seed_sequence_keys(seed, (2, 5), count))

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    @pytest.mark.parametrize("counts", [(0, 16), (1, 1), (16, 1), (3, 16), (2, 64)])
    def test_two_levels(self, seed, counts):
        keys = child_keys(RandomSource(seed), (1,), *counts)
        assert keys.shape == (*counts, 2)
        np.testing.assert_array_equal(keys, seed_sequence_keys(seed, (1,), *counts))

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_under_a_stream_prefix(self, seed):
        source = RandomSource(seed, (7,)).stream(2**32, 3)
        np.testing.assert_array_equal(child_keys(source, (), 16),
                                      seed_sequence_keys(seed, (7, 2**32, 3), 16))
        np.testing.assert_array_equal(child_keys(source, (1,), 2, 16),
                                      seed_sequence_keys(seed, (7, 2**32, 3, 1), 2, 16))

    def test_no_count_is_the_stream_itself(self):
        expected = seed_sequence_keys(9001, (0, 4)).tolist()
        assert RandomSource(9001).key(0, 4) == expected
        assert RandomSource(9001).stream(0, 4).key() == expected

    @pytest.mark.parametrize("counts", [(-1,), (16, -1), (2**32 + 1, -2**40)])
    def test_count_out_of_range_allocates_nothing(self, monkeypatch, counts):
        # child indices under (1,), one of them negative: rejected before
        # any SeedSequence or Philox is built
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before checking the ids")

        monkeypatch.setattr(np, "arange", refuse)
        for name in ("SeedSequence", "Philox"):
            monkeypatch.setattr(np.random, name, refuse)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError):
                RandomSource(3).key(1, *counts)
            with pytest.raises(DomainError):
                KeyedGenerator(RandomSource(3).key(1, *counts))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_at_most_2_32_streams_fit_one_word(self):
        # the largest index 2**32 - 1 is one 32-bit word, 2**32 takes two
        for ids in ((2**32 - 1,), (2**32,)):
            np.testing.assert_array_equal(child_keys(RandomSource(5), ids, 1),
                                          seed_sequence_keys(5, ids, 1))


class TestKeyedGenerator:
    def test_draws_equal_numpy_streams(self):
        gens = [KeyedGenerator(RandomSource(11).key(4, i)) for i in range(3)]
        for i, jumps in ((2, 0), (0, 3), (1, 0), (2, 2**64 + 1), (2, 0)):
            assert gens[i].at(jumps).integers(0, 8) == philox(11, 4, i, jumps=jumps).integers(0, 8)
            np.testing.assert_array_equal(gens[i].at(jumps).permutation(16),
                                          philox(11, 4, i, jumps=jumps).permutation(16))
            np.testing.assert_array_equal(gens[i].at(jumps).random(5),
                                          philox(11, 4, i, jumps=jumps).random(5))

    def test_key_words_keep_all_64_bits(self):
        # one key word below 2**63 and one above: numpy reads such a list
        # of ints as float64, which would round both words
        key = RandomSource(2**40 + 7).key(0)
        assert min(key) < 2**63 <= max(key)
        np.testing.assert_array_equal(KeyedGenerator(key).at(3).standard_normal(8),
                                      philox(2**40 + 7, 0, jumps=3).standard_normal(8))

    def test_reset_mid_draw_starts_afresh(self):
        # a stream left part-way through a buffered draw, then blocks drawn
        # through the same generator: each reset starts its stream afresh
        draws = KeyedGenerator(RandomSource(6).key(0))
        gen = draws.at(0)
        first = (gen.integers(0, 8), gen.standard_normal(3))
        rows = [draws.at(i).standard_normal(7) for i in range(1, 4)]
        again = draws.at(0)
        assert again.integers(0, 8) == first[0]
        np.testing.assert_array_equal(again.standard_normal(3), first[1])
        for i, row in enumerate(rows, start=1):
            np.testing.assert_array_equal(row, philox(6, 0, jumps=i).standard_normal(7))


class TestNewGenerator:
    """A new :class:`KeyedGenerator` at jump 0 starts its child stream."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SEEDS), IDS, IDS, st.integers(1, 40), st.integers(1, 20))
    def test_draws_equal_child_stream(self, seed, spawn, ids, high, k):
        root = RandomSource(seed, tuple(spawn))
        assert (opened(root, *ids).integers(0, high)
                == philox(seed, *spawn, *ids).integers(0, high))
        np.testing.assert_array_equal(opened(root, *ids).permutation(k),
                                      philox(seed, *spawn, *ids).permutation(k))

    def test_each_call_starts_afresh(self):
        # whatever earlier generators drew, a new one starts its stream afresh
        root = RandomSource(4)
        first = opened(root, 2, 9).permutation(16)
        opened(root, 0, 9).integers(0, 8, size=50)
        gaussian_block(root, (1, 9), 3, 5)
        np.testing.assert_array_equal(opened(root, 2, 9).permutation(16), first)

    def test_interleaved_calls_match_child_streams(self):
        # stream a is left part-way through a buffered draw while
        # gaussian_block and stream b draw: every draw still equals its
        # own stream's
        root = RandomSource(6)
        a = opened(root, 0, 3)
        drawn_a = (a.integers(0, 8), a.standard_normal(3), a.integers(0, 5, size=3))
        block = gaussian_block(root, (1, 3), 5, 7)
        b = opened(root, 2, 3)
        drawn_b = (b.permutation(16), b.integers(0, 8))
        second = gaussian_block(root, (1, 4), 3, 7)

        ref_a = philox(6, 0, 3)
        assert drawn_a[0] == ref_a.integers(0, 8)
        np.testing.assert_array_equal(drawn_a[1], ref_a.standard_normal(3))
        np.testing.assert_array_equal(drawn_a[2], ref_a.integers(0, 5, size=3))
        ref_b = philox(6, 2, 3)
        np.testing.assert_array_equal(drawn_b[0], ref_b.permutation(16))
        assert drawn_b[1] == ref_b.integers(0, 8)
        for ids, rows in (((1, 3), block), ((1, 4), second)):
            np.testing.assert_array_equal(rows, philox(6, *ids).standard_normal(rows.shape))

    @pytest.mark.parametrize("ids", [(-1,), (3, -2)])
    def test_bad_ids_rejected(self, ids):
        with pytest.raises(ValueError):
            opened(RandomSource(5), *ids)


class TestAlternatingCalls:
    """Calls that alternate between children, first ids and lengths of
    ids each draw their own child's stream, whatever came before."""

    CALLS = [(), (0, 5), (2**32,), (1, 7), (2**40 + 3, 2**32), (0, 6), (2**32, 1), (),
             (1, 8), (2**40 + 3, 0, 9), (np.int64(0), np.int64(5)), (2**32 + 1,)]

    @pytest.mark.parametrize("seed, spawn_key", [(0, ()), (2**32 + 1, ()), (11, (3,)),
                                                 (7, (2**40 + 3, 1))])
    def test_alternating_calls_equal_child_streams(self, seed, spawn_key):
        root = RandomSource(seed, spawn_key)
        for ids in self.CALLS:
            np.testing.assert_array_equal(gaussian_block(root, ids, 3, 5),
                                          philox(seed, *spawn_key, *ids).standard_normal((3, 5)))
            np.testing.assert_array_equal(opened(root, *ids).permutation(12),
                                          philox(seed, *spawn_key, *ids).permutation(12))

    def test_source_keeps_no_state_per_id(self):
        root = RandomSource(5, (2,))
        for ids in self.CALLS:
            gaussian_block(root, ids, 2, 3)
            opened(root, *ids).integers(0, 8)
        assert vars(root) == {"seed": 5, "spawn_key": (2,)}

    def test_negative_ids_still_rejected(self):
        root = RandomSource(5)
        opened(root, 3, 1)
        gaussian_block(root, (), 2, 2)
        for ids in [(-1,), (3, -2), (-1, 3)]:
            for _ in range(2):  # a rejected call leaves nothing behind
                with pytest.raises(ValueError):
                    opened(root, *ids)
                with pytest.raises(ValueError):
                    gaussian_block(root, ids, 2, 2)
        np.testing.assert_array_equal(opened(root, 3, 1).permutation(8),
                                      philox(5, 3, 1).permutation(8))


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

    def test_payload_larger_than_the_file_rejected(self, tmp_path):
        # 80 TB: checked against the file's size, never allocated
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, {}, {"m": np.arange(3.0), "w": np.ones((2, 2))})
        reshape_in_header(path, "w", [10**7, 10**6])
        with pytest.raises(DomainError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-1, 3], [-(10**7), -(10**6)], [2.5], [True, 3],
                                       ["3"]])
    def test_shape_of_other_than_non_negative_integers_rejected(self, tmp_path, shape):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, {}, {"m": np.arange(3.0)})
        reshape_in_header(path, "m", shape)
        with pytest.raises(DomainError, match="has shape"):
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
            rng = philox(1000 + seed)
            sizes = (3, 5, 4, 2)
            params = init_mlp(sizes, rng)
            x = rng.standard_normal(3)
            probe = rng.standard_normal(2)
            _, cache = mlp_forward(params, x)
            grad, _ = mlp_backward(params, cache, probe)

            def objective(vector):
                out, _ = mlp_forward(MlpParams(sizes, vector), x)
                return float(probe @ out)

            fd = finite_difference(objective, params.vector.copy(), h=1e-5)
            assert rel_err_ok(grad, fd, rtol=1e-4, atol=1e-8).all()
