"""Numerical substrate: a small tanh MLP with exact backpropagation, an
Adam optimizer, a counter-based random source, and checkpoint I/O.

Everything here is a pure function of its inputs; randomness only enters
through an explicit generator or :class:`RandomSource`, whose streams are
numpy's own SeedSequence children.  Matrices are
plain C-order float64 ``numpy`` arrays (rows x cols, row-major).

The ``mlp_*`` functions check shapes and finiteness and hand the
arithmetic to :mod:`kernels`, which holds the one batched implementation
of the net; :func:`mlp_forward` and :func:`mlp_backward` run a single
input as a one-row batch.

Parameters live in one flat float64 vector laid out by
:func:`param_layout` alone: w0, b0, w1, b1, ... raveled row-major, then
any extra arrays a model appends (the policy's ``cond_emb``); the layout
also names a checkpoint's arrays.  Per-array attributes such as
:attr:`MlpParams.weights` are views into the vector, so writing one
writes the other.  Gradients and Adam moments are flat in the same
layout, and :func:`adam_step_arrays` returns a new vector: nothing here
writes a parameter vector in place.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DomainError, ShapeError

CHECKPOINT_MAGIC = b"FLOWSTAGE-CKPT-v1\n"


def _as_f64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# Flat parameter layout
# ---------------------------------------------------------------------------


def param_layout(layer_sizes: Sequence[int], extra: Sequence = ()) -> list:
    """``(name, shape)`` of each array of a flat parameter vector, in order:
    ``w{l}`` (fan_out, fan_in) and ``b{l}`` (fan_out,) for each layer of a
    net with ``layer_sizes``, then the ``extra`` ``(name, shape)`` pairs."""
    sizes = [int(s) for s in layer_sizes]
    layout = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layout += [(f"w{l}", (fan_out, fan_in)), (f"b{l}", (fan_out,))]
    return layout + [(name, tuple(shape)) for name, shape in extra]


def split_params(vector: np.ndarray, layout: Sequence) -> dict:
    """Views of ``vector``, one per array of ``layout``, by name."""
    counts = [math.prod(shape) for _, shape in layout]
    if vector.shape != (sum(counts),):
        raise ShapeError(f"parameter vector shape {vector.shape}, expected ({sum(counts)},)")
    views, start = {}, 0
    for (name, shape), count in zip(layout, counts):
        views[name] = vector[start:start + count].reshape(shape)
        start += count
    return views


def join_params(arrays: dict, layout: Sequence) -> np.ndarray:
    """A new flat vector holding ``arrays[name]`` for each entry of ``layout``."""
    for name, shape in layout:
        if np.shape(arrays[name]) != shape:
            raise ShapeError(f"{name}: shape {np.shape(arrays[name])}, expected {shape}")
    return _as_f64(np.concatenate([np.ravel(arrays[name]) for name, _ in layout]))


# ---------------------------------------------------------------------------
# MLP parameters
# ---------------------------------------------------------------------------


@dataclass
class MlpParams:
    """Weights and biases of a fully connected net, held in one flat vector.

    Hidden layers use tanh, the final layer is identity; ``weights[l]`` has
    shape ``(layer_sizes[l + 1], layer_sizes[l])``.  ``weights`` and
    ``biases`` are views into ``vector`` laid out by ``layout``, the
    net's :func:`param_layout`; the vector is used as given when it is
    already a contiguous float64 array.
    """

    layer_sizes: tuple
    vector: np.ndarray
    layout: list = field(init=False, repr=False)
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ShapeError("need at least an input and an output layer")
        self.vector = _as_f64(self.vector)
        self.layout = list(_net_spans(self.layer_sizes)[0])
        self.weights, self.biases = _layer_views(self.vector, self.layer_sizes)
        if not np.isfinite(self.vector).all():
            raise DomainError("non-finite parameter")

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]


@functools.lru_cache(maxsize=64)
def _net_spans(layer_sizes: tuple) -> tuple:
    """A net's :func:`param_layout` and each of its arrays' ``(start,
    stop, shape)`` in the flat vector, as tuples, so no caller can change
    what the next one gets.  Worked out once per layer sizes (for the 64
    most recent): every policy a run builds from Adam's new vectors, and
    every gradient, is split by the same spans."""
    layout, spans, start = param_layout(layer_sizes), [], 0
    for _, shape in layout:
        stop = start + math.prod(shape)
        spans.append((start, stop, shape))
        start = stop
    return tuple(layout), tuple(spans)


def _layer_views(vector: np.ndarray, layer_sizes: tuple):
    """Per-layer weight and bias views of a vector laid out by the
    :func:`param_layout` of ``layer_sizes``."""
    spans = _net_spans(layer_sizes)[1]
    if vector.shape != (spans[-1][1],):
        raise ShapeError(f"parameter vector shape {vector.shape}, expected ({spans[-1][1]},)")
    views = [vector[start:stop].reshape(shape) for start, stop, shape in spans]
    return views[0::2], views[1::2]


def init_mlp(layer_sizes: Sequence[int], rng: np.random.Generator) -> MlpParams:
    """Random init from ``rng``: W ~ N(0, 1/fan_in), b = 0."""
    sizes = tuple(int(s) for s in layer_sizes)
    count = sum(math.prod(shape) for _, shape in param_layout(sizes))
    params = MlpParams(sizes, np.zeros(count))
    for w in params.weights:
        w[:] = rng.standard_normal(w.size).reshape(w.shape) / math.sqrt(w.shape[1])
    return params


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Evaluate the net on one input vector: a one-row batch.

    Returns ``(output, cache)`` where the cache holds per-layer activations
    for :func:`mlp_backward`.
    """
    x = _as_f64(x)
    if x.shape != (params.input_size,):
        raise ShapeError(f"input shape {x.shape}, expected ({params.input_size},)")
    _, acts = mlp_forward_batch(params, x[None])
    acts = [a[0] for a in acts]
    return acts[-1], acts


def mlp_backward(params: MlpParams, cache: list, upstream_grad: np.ndarray):
    """Exact gradients of ``upstream_grad . output`` w.r.t. parameters and input.

    ``cache`` must come from :func:`mlp_forward` on the same params.
    Returns ``(grad, grad_x)``, ``grad`` flat in the layout of
    ``params.vector``.
    """
    if len(cache) != len(params.layer_sizes):
        raise ShapeError("cache does not match network depth")
    for a, size in zip(cache, params.layer_sizes):
        if np.shape(a) != (size,):
            raise ShapeError("cache activations do not match layer sizes")
    upstream_grad = _as_f64(upstream_grad)
    if upstream_grad.shape != (params.output_size,):
        raise ShapeError(
            f"upstream grad shape {upstream_grad.shape}, expected ({params.output_size},)"
        )
    grad, grad_x = mlp_backward_batch(params, [_as_f64(a)[None] for a in cache],
                                      upstream_grad[None])
    return grad, grad_x[0]


def mlp_forward_batch(params: MlpParams, inputs: np.ndarray):
    """Batched forward pass; inputs shaped (B, in).

    Returns ``(outputs, cache)``, the cache holding one (B, size) array of
    activations per layer for :func:`mlp_backward_batch`.
    """
    inputs = _as_f64(inputs)
    if inputs.ndim != 2 or inputs.shape[1] != params.input_size:
        raise ShapeError(f"batch shape {inputs.shape}, expected (B, {params.input_size})")
    acts = kernels.forward(params.weights, params.biases, inputs)
    if not np.isfinite(acts[-1]).all():
        raise DomainError("forward pass produced a non-finite output")
    return acts[-1], acts


def mlp_backward_batch(params: MlpParams, cache: list, upstream: np.ndarray,
                       grad: np.ndarray | None = None):
    """Batched backward pass.

    Returns ``(grad, input_grads)``: the parameter gradient summed over the
    batch, flat in the layout of ``params.vector``, and one input gradient
    row per batch row.  The gradient is written into ``grad`` when the
    caller passes one, a float64 vector the size of ``params.vector``
    (the net's slice of a larger gradient, say), and into a new vector
    otherwise.
    """
    upstream = _as_f64(upstream)
    if grad is None:
        grad = np.empty_like(params.vector)
    grad_w, grad_b = _layer_views(grad, params.layer_sizes)
    input_grads = kernels.backward(params.weights, cache, upstream, grad_w, grad_b)
    return grad, input_grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Adam's decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment estimates for the standard Adam update, flat like the
    parameter vector they belong to."""

    m: np.ndarray
    v: np.ndarray
    step_count: int
    learning_rate: float


def adam_init(params: np.ndarray, learning_rate: float) -> AdamState:
    zeros = np.zeros_like(_as_f64(params))
    return AdamState(zeros, zeros.copy(), 0, learning_rate)


def adam_step_arrays(params: np.ndarray, grad: np.ndarray, state: AdamState):
    """One bias-corrected Adam update of a flat parameter vector.

    Pure: returns a new vector and a new state and writes neither input.
    Non-finite gradients are rejected so they cannot poison the moments.
    Each operation is the textbook formula's, in its order, so the result
    is bit for bit that of ``m = b1 m + (1 - b1) g``, ``v = b2 v +
    (1 - b2) g g`` and ``params - lr m_hat / (sqrt(v_hat) + eps)``; only
    the intermediate arrays are reused.
    """
    params, grad = _as_f64(params), _as_f64(grad)
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ShapeError(f"shapes differ: parameters {params.shape}, "
                         f"gradient {grad.shape}, moments {state.m.shape}")
    if not np.isfinite(grad).all():
        raise DomainError("non-finite gradient; update rejected")
    t = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = np.multiply(state.m, b1)
    tmp = np.multiply(grad, 1.0 - b1)
    m += tmp
    v = np.multiply(state.v, b2)
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v += tmp
    denom = np.divide(v, 1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    np.divide(m, 1.0 - b1**t, out=tmp)
    tmp *= state.learning_rate
    tmp /= denom
    return params - tmp, AdamState(m, v, t, state.learning_rate)


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------


# numpy's SeedSequence hashing constants (numpy/random/bit_generator.pyx)
_SEED_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _word_count(value: int) -> int:
    """How many 32-bit words SeedSequence splits a non-negative int into
    (0 is one word)."""
    return max(1, -(-int(value).bit_length() // 32))


def _hashmix(value, hash_const):
    """SeedSequence's hashmix of a 32-bit ``value`` with ``hash_const``
    (ints, or uint64 arrays that broadcast).  Returns ``(mixed value, next
    hash constant)``."""
    next_const = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * next_const & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x, y):
    """SeedSequence's mix of 32-bit ``x`` with ``y`` (ints, or uint64
    arrays that broadcast); uint64 wrap-around leaves the low 32 bits
    exact."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_pool(seq: np.random.SeedSequence) -> tuple:
    """numpy's ``seq`` as ``(pool, next hash constant)``: its entropy pool
    and the hash constant its mixing left behind, which the next entropy
    word would be hashed with.

    SeedSequence splits the seed and each spawn-key id into 32-bit words,
    the seed zero-padded to 4 words when a spawn key follows (with none,
    filling the pool hashes zeros in their place), and hashes them into
    its 4-word pool.  Each hashmix multiplies the constant by ``_MULT_A``:
    4 fill the pool, 12 cross-mix it, and each word past the fourth takes
    one per pool word, so 4 per word in all.
    """
    words = (max(_word_count(seq.entropy), _SEED_POOL_SIZE)
             + sum(_word_count(k) for k in seq.spawn_key))
    return seq.pool, _INIT_A * pow(_MULT_A, _SEED_POOL_SIZE * words, _MASK32 + 1) & _MASK32


def _philox_keys(state: tuple, count: int) -> np.ndarray:
    """``(count, 2)`` uint64 Philox keys; row i is the key numpy's
    ``generate_state(2, uint64)`` gives for the pool of ``state`` (see
    :func:`_seed_pool`) with one more entropy word, i: the key of child i
    of that SeedSequence.

    i's hashmix into pool word dst takes the dst-th hash constant from
    ``state``, and output word dst the dst-th output constant, so the
    four words are mixed at once, one per row of a ``(4, count)`` array.
    ``count`` is at most 2**32, so i is one word.
    """
    pool, hash_const = state
    hash_consts, out_consts = [hash_const], [_INIT_B]
    for _ in range(_SEED_POOL_SIZE - 1):
        hash_consts.append(hash_consts[-1] * _MULT_A & _MASK32)
        out_consts.append(out_consts[-1] * _MULT_B & _MASK32)
    hash_consts, out_consts, pool = (np.array(v, dtype=np.uint64)[:, None]
                                     for v in (hash_consts, out_consts, pool))
    mixed, _ = _hashmix(np.arange(count, dtype=np.uint64), hash_consts)
    words = _mix(pool, mixed) ^ out_consts
    words = words * (out_consts * _MULT_B & _MASK32) & _MASK32
    words ^= words >> 16
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = words[0] | words[1] << 32
    keys[:, 1] = words[2] | words[3] << 32
    return keys


class RandomSource:
    """A seed and a spawn-key prefix that address counter-based Philox
    streams: child ``ids`` is the stream of numpy's ``SeedSequence(seed,
    spawn_key=spawn_key + ids)``, so a key always reproduces its draws and
    distinct keys give independent streams.  A source is only its seed
    and spawn key: it holds no generator and keeps nothing from one call
    to the next.  Negative seeds and ids are rejected, as SeedSequence
    rejects them.
    """

    def __init__(self, seed: int, spawn_key: tuple = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        if min((self.seed, *self.spawn_key)) < 0:
            raise DomainError(f"negative seed or spawn key: {self.seed}, {self.spawn_key}")

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, spawn_key={self.spawn_key})"

    def stream(self, *ids: int) -> "RandomSource":
        """The source whose child streams are this one's under ``ids``."""
        return RandomSource(self.seed, self.spawn_key + tuple(int(i) for i in ids))

    def _child(self, ids) -> np.random.SeedSequence:
        """numpy's SeedSequence of child stream ``ids``."""
        return np.random.SeedSequence(self.seed, spawn_key=self.spawn_key + tuple(ids))

    def at_stream(self, *ids: int) -> np.random.Generator:
        """A new generator at the start of child stream ``ids`` (see the
        class): numpy's own, on the Philox of its SeedSequence."""
        if not ids:
            raise DomainError("at_stream needs at least one id")
        return np.random.Generator(np.random.Philox(self._child(ids)))

    def gaussian_streams(self, ids: Sequence[int], count: int, n: int) -> np.ndarray:
        """A ``(count, n)`` block whose row i is, bit for bit, the first n
        ``standard_normal`` draws of child stream ``(*ids, i)``.

        The rows' Philox keys come from :func:`_philox_keys` in one pass
        over the pool of child ``ids``; building a SeedSequence per row
        would cost more than drawing its row.  The rows are then drawn
        through one generator: each row writes its key into a fresh-stream
        state, sets the generator to it and draws through the generator's
        bound ``standard_normal``.  Setting a row's state costs about an
        eighth of drawing a 272-value row, so the draws bound this loop.
        """
        if not 1 <= count <= _MASK32 + 1:
            raise DomainError(f"need 1 <= count <= 2**32 streams, got {count}")
        if n < 1:
            raise DomainError(f"need n >= 1 draws, got {n}")
        seq = self._child(ids)
        out = np.empty((count, int(n)))
        bit_generator = np.random.Philox(seq)
        draw = np.random.Generator(bit_generator).standard_normal
        state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i, key in enumerate(_philox_keys(_seed_pool(seq), count).tolist()):
            state["state"]["key"] = key
            bit_generator.state = state
            draw(out=out[i])
        return out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def write_checkpoint(path, meta: dict, arrays: dict) -> None:
    """Versioned checkpoint: magic line, JSON header, raw float64 payload.

    The header and payload are fully determined by (meta, arrays), so a
    load/save round-trip is byte-identical.  The bytes go to a temporary
    file in the target's directory that then replaces the target, so a
    write that fails part-way leaves any previous checkpoint at ``path``
    whole.
    """
    path = Path(path)
    names = sorted(arrays)
    manifest = [{"name": name, "shape": list(np.shape(arrays[name]))} for name in names]
    header = json.dumps({"meta": meta, "arrays": manifest}, sort_keys=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fp:
            fp.write(CHECKPOINT_MAGIC)
            fp.write(header.encode("utf-8") + b"\n")
            for name in names:
                fp.write(_as_f64(arrays[name]).tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path):
    """Inverse of :func:`write_checkpoint`; returns ``(meta, arrays)``.
    An array is read only once its shape is non-negative ints and its
    payload fits in what is left of the file."""
    with open(path, "rb") as fp:
        magic = fp.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DomainError(f"{path}: not a flowstage checkpoint")
        header = json.loads(fp.readline().decode("utf-8"))
        left = os.fstat(fp.fileno()).st_size - fp.tell()
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            if not all(type(d) is int and d >= 0 for d in shape):
                raise DomainError(f"{path}: array {entry['name']!r} has shape {list(shape)}")
            size = 8 * math.prod(shape)
            if size > left:
                raise DomainError(f"{path}: truncated checkpoint payload")
            left -= size
            buf = fp.read(size)
            arrays[entry["name"]] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
        if left:
            raise DomainError(f"{path}: trailing bytes after the checkpoint payload")
    return header["meta"], arrays
