"""Every name a ``src/repro`` module imports is read in that module.

A package ``__init__.py`` imports to re-export, a module's ``__all__``
names what it re-exports, and ``from __future__`` imports are compiler
switches, so those three are not counted.  Names inside string
annotations count as read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree: ast.Module) -> dict:
    """Bound name -> line of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set:
    """Every name ``tree`` reads, string annotations and ``__all__`` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def test_no_module_imports_a_name_it_never_reads():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 50  # the walk found the package
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        unused += [
            f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in read
        ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom typing import List, Optional\nx: Optional[int] = 1\n")
    read = _read(tree)
    assert sorted(n for n in _imported(tree) if n not in read) == ["List", "math"]
