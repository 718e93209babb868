"""Every random draw in the package comes from a stream that its seed and
stream key name: no code draws from numpy's legacy global state, a
``default_rng`` or ``RandomState`` of its own, or Python's ``random``."""

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
rng.at_stream(0).permutation(8)
"""
    assert unkeyed_randomness(ast.parse(code)) == list(range(2, 12))
