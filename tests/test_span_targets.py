"""Every callable the end-to-end benchmark's traced pass wraps still exists.

``benchmarks/e2e/spans.py`` swaps class attributes by name, through
``cls.__dict__[attr]``, and rebinds module functions by name.  A method
folded into its caller would make ``run.py --trace 1`` raise ``KeyError``
or silently time nothing, and the benchmark's own smoke test is outside
tier 1.  The target tables are read from the file, which is not imported
or changed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"


def _targets(name: str) -> dict:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no {name}")


CLASS_TARGETS = _targets("CLASS_TARGETS")
FUNCTION_TARGETS = _targets("FUNCTION_TARGETS")


@pytest.mark.parametrize("span", sorted(CLASS_TARGETS))
def test_class_target_is_in_its_class_dict(span):
    module, cls_name, attr = CLASS_TARGETS[span]
    cls = getattr(importlib.import_module(module), cls_name)
    assert attr in cls.__dict__, f"{span}: {cls_name}.{attr} is not defined on the class itself"


@pytest.mark.parametrize("span", sorted(FUNCTION_TARGETS))
def test_function_target_exists_in_its_module(span):
    module, attr = FUNCTION_TARGETS[span]
    fn = getattr(importlib.import_module(module), attr, None)
    assert inspect.isfunction(fn), f"{span}: {module}.{attr} is not a module function"

