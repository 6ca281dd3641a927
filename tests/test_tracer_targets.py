"""The benchmark's trace mode wraps package attributes by name; keep them there."""

import ast
import importlib
from functools import cached_property
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> list[tuple[str, str, str, str]]:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS list")


@pytest.mark.parametrize("group, owner_path, attr, kind", _targets())
def test_tracer_target_exists(group, owner_path, attr, kind):
    module_name, _, class_name = owner_path.partition(".")
    owner = importlib.import_module(f"opteleport.{module_name}")
    if class_name:
        owner = getattr(owner, class_name)
    assert attr in owner.__dict__, f"{owner_path}.{attr} is gone"
    raw = owner.__dict__[attr]
    if kind == "classmethod":
        assert isinstance(raw, classmethod)
    elif kind == "cached_property":
        assert isinstance(raw, cached_property)
    else:
        assert callable(raw) and not isinstance(raw, (classmethod, staticmethod, property))
