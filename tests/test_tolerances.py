"""Every decision tolerance is named once, in ``homoglab._tol``."""

import ast
import re
import tokenize
from pathlib import Path

import homoglab
from homoglab import _tol

PACKAGE = Path(homoglab.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def _small_literals(path):
    """(line, token) of every number literal in (0, 1e-2) in a source file."""
    with open(path, "rb") as fh:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.tokenize(fh.readline)
            if tok.type == tokenize.NUMBER and 0.0 < abs(ast.literal_eval(tok.string)) < 1e-2
        ]


def test_no_tolerance_literal_outside_the_tolerance_module():
    found = {
        path.name: lits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "_tol.py" and (lits := _small_literals(path))
    }
    assert found == {}


def test_the_scan_sees_a_literal():
    assert _small_literals(PACKAGE / "_tol.py")


def test_readme_table_lists_every_tolerance_with_its_value():
    names = {k: v for k, v in vars(_tol).items() if k.isupper()}
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([A-Z_]+)` +\| ([0-9.e+-]+) +\|", text, flags=re.M)
    assert {name: float(value) for name, value in rows} == names


def _tolerances_read(path):
    """Names read from ``_tol`` by a source file: ``_tol.NAME`` attributes and
    names imported from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_tol":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_tol"):
            names.update(alias.name for alias in node.names)
    return names


def test_every_tolerance_is_read_by_another_module():
    """A tolerance no decision reads is dead: each upper-case name of
    ``_tol`` is read somewhere else in the package."""
    names = {k for k in vars(_tol) if k.isupper()}
    read = set().union(*(_tolerances_read(path) for path in PACKAGE.glob("*.py")
                         if path.name != "_tol.py"))
    assert names - read == set()
