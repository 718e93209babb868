"""Every public function and method of the package, and every private
helper, has a caller in the package itself: a helper that only tests
call belongs in the tests.  And the SDE step constants have one source."""

import ast
from pathlib import Path

import numpy as np

import flowstage

SRC = Path(flowstage.__file__).resolve().parent

# Public names that nothing in src/ calls, or methods named like a numpy
# attribute (NUMPY_NAMES), each with the reason it stays.
ALLOWED = {
    "flow_policy.velocity": "the one-state velocity; perfbench/test_perfbench.py traces it, "
                            "and it is the one caller of numerics.mlp_forward",
    "numerics.mlp_backward": "BENCHMARK.json's per_layer metrics name numerics.mlp_backward",
}

# Attributes of numpy arrays and generators: src/ reading one of these
# names may be reading numpy's (``rng.at_stream(k).permutation``), so a
# public method of that name is not counted as called.
NUMPY_NAMES = set(dir(np.ndarray)) | set(dir(np.random.Generator))


def public_defs():
    """``module.function`` and ``module.Class.method`` for every public
    function, and every public method of a public class, in src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}"


def private_defs():
    """``module._function``, ``module._Class`` and ``module.Class._method``
    for every private function, class and method in src/; dunder methods
    are Python's to call."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef) and member.name.startswith("_")
                            and not member.name.endswith("__")):
                        yield f"{path.stem}.{node.name}.{member.name}"


def referenced_names() -> set:
    """Every name read as a variable or an attribute anywhere in src/.  A
    ``def`` and an import are not references: re-exporting a function
    does not count as calling it."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_has_a_caller_in_src():
    used = referenced_names()
    uncalled = set()
    for name in public_defs():
        bare = name.rsplit(".", 1)[1]
        if bare not in used or (name.count(".") == 2 and bare in NUMPY_NAMES):
            uncalled.add(name)
    # an allowed name that gains a caller leaves the list
    assert uncalled == set(ALLOWED)


def test_every_private_helper_has_a_caller_in_src():
    used = referenced_names()
    assert [name for name in private_defs() if name.rsplit(".", 1)[1] not in used] == []


def test_step_coeffs_is_read_only_by_the_grid():
    """``SdeConfig.grid`` is the one home of the step constants: the only
    code in src/ that calls ``_step_coeffs``."""
    tree = ast.parse((SRC / "flow_policy.py").read_text())
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "SdeConfig")
    grid = next(node for node in config.body
                if isinstance(node, ast.FunctionDef) and node.name == "grid")
    calls = [(path.stem, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name) and node.id == "_step_coeffs"]
    assert len(calls) == 1
    assert calls[0][0] == "flow_policy" and grid.lineno <= calls[0][1] <= grid.end_lineno
