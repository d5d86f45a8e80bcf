"""Every module of ``repro`` has a caller besides its own tests.

A module that only its tests import is code that no workload, figure,
example or tool runs: it is wired in or deleted.  The check reads import
statements with ``ast`` and imports nothing from ``repro``.

A module counts as reached when a module of ``src/`` other than itself
and other than a package ``__init__``, or any file under ``examples/``,
``benchmarks/`` or ``tools/``, imports it.  A re-export is not a caller:
``from repro.pkg import Name`` is followed through
``repro/pkg/__init__.py`` to the submodule that defines ``Name``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("examples", "benchmarks", "tools")

#: Modules whose only callers are tests, each with the test directory
#: that calls it.  The invariant monitor is what the chaos matrix checks
#: its scenarios with, and only ``tests/chaos`` runs scenarios.
ALLOWED = {"repro.faults.invariants": "tests/chaos"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _from_base(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute module a ``from ... import`` in ``module`` reads."""
    if not node.level:
        return node.module or ""
    anchor = module if is_package else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        anchor = anchor.rpartition(".")[0]
    return f"{anchor}.{node.module}" if node.module else anchor


def _imports(path: Path, module: str) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """``(module, imported names)`` for each import anywhere in ``path``."""
    is_package = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, module, is_package)
            yield base, tuple(alias.name for alias in node.names)


def _src_modules() -> Dict[str, Path]:
    return {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}


def _reexports(modules: Dict[str, Path]) -> Dict[str, Dict[str, Tuple[str, str]]]:
    """Per package, each name its ``__init__`` imports: (module, name)."""
    out: Dict[str, Dict[str, Tuple[str, str]]] = {}
    for module, path in modules.items():
        if path.name != "__init__.py":
            continue
        table = out[module] = {}
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ImportFrom):
                base = _from_base(node, module, is_package=True)
                for alias in node.names:
                    table[alias.asname or alias.name] = (base, alias.name)
    return out


def _targets(module: str, names: Tuple[str, ...], modules, reexports) -> Set[str]:
    """The modules of ``src/`` that ``from module import names`` reaches
    (``import module`` when ``names`` is empty)."""
    reached = {module} if module in modules else set()
    for name in names:
        if f"{module}.{name}" in modules:
            reached.add(f"{module}.{name}")
        elif name in reexports.get(module, {}):
            source, original = reexports[module][name]
            reached |= _targets(source, (original,), modules, reexports)
    return reached


def _callers(modules: Dict[str, Path], files: List[Tuple[str, Path, str]]) -> Dict[str, Set[str]]:
    """Per module of ``src/``, the callers among ``files``, given as
    (caller label, path, module name the file's relative imports use)."""
    reexports = _reexports(modules)
    callers: Dict[str, Set[str]] = {}
    for label, path, module in files:
        for base, names in _imports(path, module):
            for target in _targets(base, names, modules, reexports):
                if target != module:
                    callers.setdefault(target, set()).add(label)
    return callers


def _outside_files(dirs) -> List[Tuple[str, Path, str]]:
    files = []
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            rel = path.relative_to(ROOT)
            files.append((str(rel), path, ".".join(rel.with_suffix("").parts)))
    return files


def _unreached() -> Set[str]:
    modules = _src_modules()
    files = [
        (module, path, module)
        for module, path in modules.items()
        if path.name != "__init__.py"
    ] + _outside_files(CALLER_DIRS)
    callers = _callers(modules, files)
    return {
        module
        for module, path in modules.items()
        if path.name != "__init__.py" and module not in callers
    }


def test_every_module_has_a_caller_outside_its_tests():
    unreached = _unreached() - set(ALLOWED)
    assert not unreached, (
        f"only tests import {sorted(unreached)}: wire each into a workload, "
        "example or tool, or delete it"
    )


def test_each_allowed_module_is_unreached_and_called_from_its_named_tests():
    unreached = _unreached()
    modules = _src_modules()
    for module, test_dir in ALLOWED.items():
        assert module in unreached, f"{module} has a caller now: drop it from ALLOWED"
        callers = _callers(modules, _outside_files((test_dir,)))
        assert callers.get(module), f"nothing under {test_dir} imports {module}"


def test_a_reexport_is_followed_to_its_defining_module(tmp_path):
    """``from pkg import Name`` reaches the submodule ``pkg/__init__.py``
    took ``Name`` from, through a relative import and an alias too."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .impl import Thing as Alias\n")
    (pkg / "impl.py").write_text("class Thing:\n    pass\n")
    (pkg / "other.py").write_text("")
    user = tmp_path / "user.py"
    user.write_text("from pkg import Alias\n")
    modules = {"pkg": pkg / "__init__.py", "pkg.impl": pkg / "impl.py", "pkg.other": pkg / "other.py"}
    callers = _callers(modules, [("user.py", user, "user")])
    assert callers == {"pkg": {"user.py"}, "pkg.impl": {"user.py"}}
