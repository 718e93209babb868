"""Every random draw in the package comes from a stream that its seed and
stream key name: no code draws from numpy's legacy global state, a
``default_rng`` or ``RandomState`` of its own, or Python's ``random``.
And a stream is opened one way: numpy's SeedSequence, Philox and
Generator are built in ``numerics`` alone, by ``RandomSource.key`` and
``KeyedGenerator``, and nothing calls the removed
``RandomSource.at_stream``, which built them afresh for one stream."""

import ast
from pathlib import Path

import numpy as np

import flowstage

SRC = Path(flowstage.__file__).resolve().parent

# numpy.random's functions (the legacy global draws, seeding and
# default_rng) and its legacy generator class
FORBIDDEN = {name for name in np.random.__all__
             if not isinstance(getattr(np.random, name), type)} | {"RandomState"}


def _is_numpy_random(node: ast.AST) -> bool:
    """Whether ``node`` reads ``np.random``, ``numpy.random`` or a bare
    ``random``."""
    if isinstance(node, ast.Name):
        return node.id == "random"
    return (isinstance(node, ast.Attribute) and node.attr == "random"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def unkeyed_randomness(tree: ast.AST) -> list:
    """The line of each use in ``tree`` of a :data:`FORBIDDEN` name of
    ``numpy.random`` (read through the module, imported from it, or the
    names ``default_rng`` and ``RandomState`` themselves), and of each
    import of Python's ``random``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            bad = node.attr in FORBIDDEN and _is_numpy_random(node.value)
        elif isinstance(node, ast.Name):
            bad = node.id in ("default_rng", "RandomState")
        elif isinstance(node, ast.Import):
            bad = any(alias.name.split(".")[0] == "random" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bad = (node.module == "random" or node.module == "numpy.random"
                   and any(alias.name in FORBIDDEN for alias in node.names))
        else:
            continue
        if bad:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_src_draws_only_from_keyed_streams():
    found = [f"{path.stem}.py:{line}" for path in sorted(SRC.glob("*.py"))
             for line in unkeyed_randomness(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_sees_each_form():
    code = """
np.random.seed(0)
x = numpy.random.normal(size=3)
rng = np.random.default_rng(1)
state = np.random.RandomState(2)
from numpy.random import default_rng
from numpy.random import randn as draw
import random
import random as r
from random import gauss
f = default_rng
np.random.Generator(np.random.Philox(np.random.SeedSequence(3)))
from numpy.random import Generator, Philox
gen.random(4)
gen.standard_normal(5)
KeyedGenerator(key).at(0).permutation(8)
"""
    assert unkeyed_randomness(ast.parse(code)) == list(range(2, 12))


# numpy's classes behind a stream, built by ``numerics`` for the package
STREAM_CLASSES = {"SeedSequence", "Philox", "Generator"}


def stream_builds(tree: ast.AST) -> list:
    """``(scope, name)`` for each call in ``tree`` that builds one of
    :data:`STREAM_CLASSES` (read through ``numpy.random`` or imported
    from it, under any alias) and each reference to ``at_stream``,
    ``scope`` being the dotted names of the functions and classes around
    it."""
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy.random"
                for alias in node.names if alias.name in STREAM_CLASSES}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr == "at_stream":
                found.append((".".join(scope), "at_stream"))
            elif isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr in STREAM_CLASSES
                        and _is_numpy_random(func.value)):
                    found.append((".".join(scope), func.attr))
                elif isinstance(func, ast.Name) and func.id in imported:
                    found.append((".".join(scope), imported[func.id]))
            visit(child, inner)

    visit(tree, ())
    return found


def test_streams_are_keyed_once_per_run():
    uses = [(f"{path.stem}.{scope}", name) for path in sorted(SRC.glob("*.py"))
            for scope, name in stream_builds(ast.parse(path.read_text(encoding="utf-8")))]
    assert [use for use in uses if use[1] == "at_stream"] == []
    assert [use for use in uses if not use[0].startswith("numerics.")] == []


def test_the_build_check_sees_each_form():
    code = """
from numpy.random import Generator as Gen, Philox
import numpy.random

def draw(seed):
    return np.random.SeedSequence(seed)

class Sampler:
    def step(self, rng, k):
        def inner():
            return numpy.random.Philox(k)
        return rng.at_stream(0, k), inner

root = Gen(Philox(3))
pick = source.at_stream
np.random.Generator
gen.standard_normal(4)
"""
    assert sorted(stream_builds(ast.parse(code))) == [
        ("", "Generator"),
        ("", "Philox"),
        ("", "at_stream"),
        ("Sampler.step", "at_stream"),
        ("Sampler.step.inner", "Philox"),
        ("draw", "SeedSequence"),
    ]
