"""Every module of the package reads each name it imports.

Parsed with :mod:`ast`, so no linter is needed.  ``__init__.py`` is left
out: its imports are the public re-exports.  Names read only inside quoted
annotations count as read.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "opteleport")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def _imported(tree):
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    quoted = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_modules_are_found():
    assert "teleport.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{module} imports names it never reads: {unused}"


def test_an_unread_import_is_reported():
    tree = ast.parse("import os\nfrom math import pi, tau\nx: 'tau' = 1\n")
    assert set(_imported(tree)) - _read(tree) == {"os", "pi"}
