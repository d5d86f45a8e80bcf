"""Every configuration value has a caller that sets it.

A configuration value is an init field of a ``*Config`` dataclass of
``src/repro`` or a defaulted parameter of ``SmartIndexManager``.  A value
that no workload, figure, chaos scenario, example or tool sets away from
its default is a constant, not an option: it becomes a module constant
that a test can still patch.

A value counts as set when a call to its class passes it, by keyword or
by position, and the argument is not a literal equal to the default.
Keyword arguments of ``dataclasses.replace`` count for every value with
that field name, since the scan does not know the replaced object's
class.  Under ``benchmarks/e2e/`` any argument counts, even one at its
default: the benchmark's workloads name the values they fix.  The classes and their
values come from ``dataclasses.fields`` and ``inspect.signature``; the
callers are read with ``ast`` and not imported.

A change that raises :data:`VALUES` says why in CHANGES.md.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: Where the callers live, relative to the repo root.
CALLER_PATHS = ("src", "examples", "benchmarks", "tools", "tests/chaos", "tests/test_soak_chaos.py")
#: Arguments here count as set even at their default.
NAMED_PATHS = ("benchmarks/e2e",)
#: Classes counted besides the ``*Config`` dataclasses: (module, class).
EXTRA_CLASSES = (("repro.index.smartindex", "SmartIndexManager"),)
#: The pinned number of configuration values.
VALUES = 42

#: Values kept configurable though no caller sets them, each with why.
KEPT = {
    "GatewayConfig.tenants": "per-tenant resource agreements are deployment data (§III)",
    "GatewayConfig.memory_budget_bytes": "cluster memory is deployment capacity (§III)",
    "FeisuConfig.default_scale_factor": "the golden detector tests/test_sim_golden.py sets it",
}

_NO_DEFAULT = object()


def _config_classes() -> List[type]:
    """Every ``*Config`` dataclass defined in ``src/repro``, then the extras."""
    classes = []
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                cls = getattr(importlib.import_module(module), node.name)
                if dataclasses.is_dataclass(cls):
                    classes.append(cls)
    for module, name in EXTRA_CLASSES:
        classes.append(getattr(importlib.import_module(module), name))
    return classes


def _parameters(cls: type) -> List[Tuple[str, object]]:
    """``(name, default)`` of each init parameter of ``cls`` in positional
    order, ``_NO_DEFAULT`` for a required one."""
    if dataclasses.is_dataclass(cls):
        out = []
        for f in dataclasses.fields(cls):
            if not f.init:
                continue
            if f.default is not dataclasses.MISSING:
                out.append((f.name, f.default))
            elif f.default_factory is not dataclasses.MISSING:
                out.append((f.name, f.default_factory()))
            else:
                out.append((f.name, _NO_DEFAULT))
        return out
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [(p.name, _NO_DEFAULT if p.default is p.empty else p.default) for p in params]


def _values(cls: type) -> List[str]:
    """A dataclass's every init field; another class's defaulted parameters."""
    keep_required = dataclasses.is_dataclass(cls)
    return [
        f"{cls.__name__}.{name}"
        for name, default in _parameters(cls)
        if keep_required or default is not _NO_DEFAULT
    ]


def _equals_default(node: ast.expr, default: object) -> bool:
    try:
        return ast.literal_eval(node) == default
    except ValueError:
        return False


def _files(paths) -> Iterator[Path]:
    for rel in paths:
        path = ROOT / rel
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def _called_name(call: ast.Call, aliases: Dict[str, str]) -> str:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return aliases.get(name, name)


def _set_values(
    classes: List[type], files, named=tuple(ROOT / rel for rel in NAMED_PATHS)
) -> Set[str]:
    """The values that some call in ``files`` sets away from its default;
    in a file under a ``named`` directory any argument sets its value."""
    params = {cls.__name__: _parameters(cls) for cls in classes}
    out: Set[str] = set()
    for path in files:
        any_argument = any(base in path.parents for base in named)
        tree = ast.parse(path.read_text(), str(path))
        aliases = {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = _called_name(call, aliases)
            if name == "replace":
                targets = list(params)
                passed = [(kw.arg, kw.value) for kw in call.keywords]
            elif name in params:
                targets = [name]
                passed = list(zip((p for p, _ in params[name]), call.args))
                passed += [(kw.arg, kw.value) for kw in call.keywords]
            else:
                continue
            for cls in targets:
                defaults = dict(params[cls])
                for param, value in passed:
                    if param not in defaults or isinstance(value, ast.Starred):
                        continue
                    if any_argument or not _equals_default(value, defaults[param]):
                        out.add(f"{cls}.{param}")
    return out & {value for cls in classes for value in _values(cls)}


def _census() -> Tuple[List[str], Set[str]]:
    """(every value, the values no caller sets)."""
    classes = _config_classes()
    values = [value for cls in classes for value in _values(cls)]
    return values, set(values) - _set_values(classes, _files(CALLER_PATHS))


def test_the_value_count_is_pinned():
    values, unset = _census()
    assert len(values) == VALUES, (
        f"{len(values)} configuration values, pinned at {VALUES}; "
        f"unset: {sorted(unset - set(KEPT))}"
    )


def test_every_value_is_set_by_a_caller():
    _, unset = _census()
    unset -= set(KEPT)
    assert not unset, (
        f"no workload, figure, chaos scenario, example or tool sets {sorted(unset)}: "
        "make each a module constant"
    )


def test_each_kept_value_exists_and_is_unset():
    values, unset = _census()
    for value, reason in KEPT.items():
        assert reason
        assert value in values, f"{value} is gone: drop it from KEPT"
        assert value in unset, f"{value} has a caller now: drop it from KEPT"


def test_the_scan_reads_keywords_positions_replace_and_named_paths(tmp_path):
    @dataclasses.dataclass
    class DemoConfig:
        a: int = 1
        b: float = 2.0
        c: bool = False
        d: int = 4

    class DemoManager:
        def __init__(self, sim, budget=1, ttl=2):
            pass

    assert _values(DemoManager) == ["DemoManager.budget", "DemoManager.ttl"]
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from x import DemoConfig as D\n"
        "D(5, b=2.0, c=True)\n"
        "replace(cfg, d=3, b=2)\n"
        "DemoManager(sim, 5)\n"
    )
    classes = [DemoConfig, DemoManager]
    set_values = _set_values(classes, [caller], named=())
    assert set_values == {"DemoConfig.a", "DemoConfig.c", "DemoConfig.d", "DemoManager.budget"}
    # Under a named directory an argument at its default counts too.
    set_values = _set_values(classes, [caller], named=(tmp_path,))
    assert set_values == {
        "DemoConfig.a", "DemoConfig.b", "DemoConfig.c", "DemoConfig.d", "DemoManager.budget"
    }
