"""Measurement machinery of the benchmark: op-boundary hooks, scaling to
reference host speed, the span tracer, self-time accounting and the
tail-latency rule.

Nothing here knows about workloads; ``run.py`` wires it to the program.
All hooks patch attributes from the outside and restore them on exit, so
the program itself carries no measurement code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

# At least this many op latencies must lie beyond the reported tail.
TAIL_BEYOND = 10
TAIL_PERCENTILE = 95.0


class HookError(RuntimeError):
    """A hook target named by the benchmark does not exist in the program."""


def resolve(module_name: str, dotted: str):
    """Return ``(owner, attribute name, current value)`` for a hook target.

    ``dotted`` is a function name or ``Class.method``; the owner is the
    object whose attribute a caller looks up.  A missing target raises
    :class:`HookError` naming it.
    """
    full = f"{module_name}.{dotted}"
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"hook target {full}: cannot import {module_name}: {exc}") from exc
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook target {full} does not exist")
    if not hasattr(owner, parts[-1]):
        raise HookError(f"hook target {full} does not exist")
    return owner, parts[-1], getattr(owner, parts[-1])


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class OpClock:
    """Timestamps one op boundary per call of a public function.

    Op latencies are the gaps between consecutive boundaries, so the
    function must be called exactly once per op.  ``clock`` reads the
    time (a :class:`PausableClock` leaves out the benchmark's own checks);
    ``on_call(boundary index)`` (if given) runs after each timestamp; the
    set-up probe uses it to stop a run at its first op.
    """

    def __init__(self, module_name: str, dotted: str, on_call=None, clock=time.perf_counter):
        self._owner, self._attr, self._fn = resolve(module_name, dotted)
        self._on_call = on_call
        self._clock = clock
        self._patches = Patches()
        self.stamps: list = []

    def __enter__(self):
        fn, stamps, on_call, clock = self._fn, self.stamps, self._on_call, self._clock

        @functools.wraps(fn)
        def boundary(*args, **kwargs):
            stamps.append(clock())
            if on_call is not None:
                on_call(len(stamps) - 1)
            return fn(*args, **kwargs)

        self._patches.set(self._owner, self._attr, boundary)
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


class PausableClock:
    """``time.perf_counter`` minus the time spent inside ``paused()``."""

    def __init__(self):
        self._offset = 0.0

    def __call__(self) -> float:
        return time.perf_counter() - self._offset

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._offset += time.perf_counter() - t0


class HostSpeed:
    """Measures how fast the host runs right now, next to each op.

    On a shared machine other tenants slow every instruction stream by up
    to about 2x, in stretches from milliseconds to minutes, which moves
    wall-clock medians between runs far more than code changes do.  At op
    boundaries (at most one every ``every`` seconds, with the clock
    paused) this runs a fixed reference snippet of the same kind of work
    as the program (small numpy mat-vec products and a Python loop).  An
    op's latency divided by the snippet time around it, times
    ``REFERENCE_S``, is the op's latency at reference speed.
    """

    REFERENCE_S = 120e-6  # the snippet's time on an idle 2.0 GHz Xeon core

    def __init__(self, clock: PausableClock, every: float = 0.01):
        rng = np.random.default_rng(0)
        self._w = rng.normal(size=(64, 64)) / 8.0
        self._x = rng.normal(size=64)
        self._clock = clock
        self._every = every
        self._last = -math.inf
        self.samples: list = []  # (boundary index, snippet seconds)

    def snippet(self) -> float:
        t0 = time.perf_counter()
        x = self._x
        for _ in range(30):
            x = np.tanh(self._w @ x)
            acc = 0.0
            for j in range(20):
                acc += j * 0.5
        return time.perf_counter() - t0

    def at_boundary(self, index: int) -> None:
        if self._clock() - self._last >= self._every:
            with self._clock.paused():
                self.samples.append((index, self.snippet()))
            self._last = self._clock()

    def slowdown(self, boundaries: int) -> np.ndarray:
        """Per-op slowdown (snippet time over ``REFERENCE_S``) for the ops
        between consecutive boundaries: the mean of the last sample at or
        before the op's start and the first at or after its end."""
        probe = np.full(boundaries, np.nan)
        for index, seconds in self.samples:
            probe[index] = seconds
        before, after = _fill(probe), _fill(probe[::-1])[::-1]
        after = np.where(np.isnan(after), before, after)
        return (before[:-1] + after[1:]) / (2.0 * self.REFERENCE_S)


def _fill(values: np.ndarray) -> np.ndarray:
    """Forward-fill NaNs with the last value seen."""
    idx = np.where(np.isnan(values), 0, np.arange(len(values)))
    np.maximum.accumulate(idx, out=idx)
    return values[idx]


def tail_latency(latencies):
    """The highest nearest-rank percentile, at most the 95th, that has at
    least ``TAIL_BEYOND`` samples strictly above its rank.

    Returns ``(value, percentile)``, or None when there are too few
    samples for any rank to have that many beyond it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < TAIL_BEYOND + 1:
        return None
    rank = min(math.ceil(TAIL_PERCENTILE / 100.0 * n), n - TAIL_BEYOND)
    return xs[rank - 1], min(TAIL_PERCENTILE, 100.0 * rank / n)


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _owned_callables(module):
    """Public functions and methods a layer module defines.

    Yields ``(owner, attribute, raw attribute, span name)``.  Functions
    defined in a private module (``kernels`` binds ``_mlp_np.forward``)
    belong to the public module that exposes them.
    """
    package, short = module.__name__.rsplit(".", 1)
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        home = getattr(value, "__module__", None) or ""
        mine = home == module.__name__ or (
            home.startswith(package + ".") and home.rsplit(".", 1)[-1].startswith("_"))
        if inspect.isfunction(value) and mine:
            yield module, attr, value, f"{short}.{attr}"
        elif inspect.isclass(value) and home == module.__name__:
            for meth, raw in sorted(vars(value).items()):
                if meth.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield value, meth, raw, f"{short}.{attr}.{meth}"


class Tracer:
    """Spans around every public function of the given layer modules.

    A span wraps a function under each name its callers look it up by:
    every ``flowstage`` module attribute bound to it, and class attributes
    for methods.  Spans are kept in flat arrays (name index, parent span,
    start, end) and summarised after the run.  ``observers`` maps a span
    name to ``fn(args, result) -> {counter: increment}`` for counts that
    need the call's arguments or result.  ``clock`` reads the time; a
    :class:`PausableClock` keeps the benchmark's own work out of the spans.
    """

    def __init__(self, package: str, layers, observers=None, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.layers = list(layers)
        self.observers = dict(observers or {})
        self.names: list = []
        self.name_ix: array = array("l")
        self.parent: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.counters: dict = {}
        self._stack = [-1]
        self._patches = Patches()

    def _wrap(self, fn, ix):
        names, parents, starts, ends, stack = (
            self.name_ix, self.parent, self.start, self.end, self._stack)
        clock = self.clock
        observe = self.observers.get(self.names[ix])
        counters = self.counters.setdefault(self.names[ix], {})

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                for key, inc in observe(args, result).items():
                    counters[key] = counters.get(key, 0) + inc
            return result

        return span

    def __enter__(self):
        modules = [importlib.import_module(f"{self.package}.{m}") for m in self.layers]
        everywhere = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == self.package
                                            or name.startswith(self.package + "."))]
        for module in modules:
            for owner, attr, raw, span_name in _owned_callables(module):
                ix = len(self.names)
                self.names.append(span_name)
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patches.set(owner, attr, type(raw)(self._wrap(raw.__func__, ix)))
                elif owner is module:
                    wrapped = self._wrap(raw, ix)
                    for other in everywhere:
                        for name, value in list(vars(other).items()):
                            if value is raw:
                                self._patches.set(other, name, wrapped)
                else:
                    self._patches.set(owner, attr, self._wrap(raw, ix))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False

    def summary(self) -> dict:
        """Per span name: ``calls``, inclusive ``ms``, ``self_ms`` and any
        observer counters, summed over the run."""
        ix = np.asarray(self.name_ix, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        own = self_times(start, end, parent)
        k = len(self.names)
        calls = np.bincount(ix, minlength=k)
        total = np.bincount(ix, weights=end - start, minlength=k)
        selfs = np.bincount(ix, weights=own, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "ms": 1e3 * float(total[i]),
                         "self_ms": 1e3 * float(selfs[i]), **self.counters.get(name, {})}
        return out


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval its child spans cover.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    Overlapping children are counted once (their union), and children are
    clipped to the parent's interval.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = [0.0] * len(start)
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0]
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    cur, reach = -1, 0.0
    for i in order.tolist():
        p = par[i]
        if p != cur:
            cur, reach = p, s[p]
        lo, hi = max(s[i], reach), min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.asarray(covered)
