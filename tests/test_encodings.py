"""Every text file the package opens names its encoding, so what a run
reads and writes does not depend on the locale it runs under."""

import ast
from pathlib import Path

import flowstage

SRC = Path(flowstage.__file__).resolve().parent


def _mode(call: ast.Call, position: int):
    """The mode ``call`` passes at ``position`` or as ``mode=``; "r" when
    it passes none, None when it is not a string constant."""
    given = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if given is None and len(call.args) > position:
        given = call.args[position]
    if given is None:
        return "r"
    text = isinstance(given, ast.Constant) and isinstance(given.value, str)
    return given.value if text else None


def text_opens_without_encoding(tree: ast.AST) -> list:
    """The line of each ``open(...)``, ``x.open(...)``, ``x.read_text(...)``
    and ``x.write_text(...)`` call in ``tree`` that opens a file in text
    mode without ``encoding=``; a mode that is not a string constant
    counts as text."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(kw.arg == "encoding" for kw in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node, 1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode = _mode(node, 0)  # Path.open(mode)
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            mode = "r"
        else:
            continue
        if mode is None or "b" not in mode:
            lines.append(node.lineno)
    return lines


def test_every_text_open_in_src_names_its_encoding():
    found = [f"{path.stem}.py:{line}" for path in sorted(SRC.glob("*.py"))
             for line in text_opens_without_encoding(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_sees_each_form():
    code = """
open(p)
open(p, "w")
open(p, mode="a", newline="")
open(p, m)
p.open()
p.open("w")
p.read_text()
p.write_text(t)
open(p, "rb")
open(p, mode="wb")
p.open("rb")
open(p, encoding="utf-8")
p.read_text(encoding="utf-8")
p.write_text(t, encoding="utf-8")
"""
    assert text_opens_without_encoding(ast.parse(code)) == [2, 3, 4, 5, 6, 7, 8, 9]
