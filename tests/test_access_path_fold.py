"""The scan's access paths stay behind one fold.

``engine/executor.py`` folds whatever access paths the leaf hands it
through their ``probe``; it names none of them by type, so a new path,
or the deletion of one, touches the path and the leaf, never the
executor.  The SmartIndex answers a scan filter through one ``cover``,
and every path's ``probe`` returns ``(mask, missing, charge)``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.engine.executor as executor
from repro.columnar.block import Block
from repro.columnar.schema import DataType, Schema
from repro.engine.executor import TaskExecutionReport
from repro.index.btree import BTreeIndex
from repro.index.smartindex import SmartIndexManager
from repro.planner.cnf import to_cnf
from repro.sql.parser import parse_expression

#: Access-path types and helpers the executor must not name.
ACCESS_PATH_NAMES = {
    "BPlusTree",
    "BTreeIndex",
    "LayoutSpec",
    "ResidualClause",
    "sorted_candidate_rows",
}


def _named(path: Path) -> set:
    """Every name the module imports, anywhere in it, and every bare
    name or attribute it reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            names.update((node.module or "").split("."))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_executor_names_no_access_path():
    named = _named(Path(executor.__file__))
    assert not named & ACCESS_PATH_NAMES, sorted(named & ACCESS_PATH_NAMES)
    assert "btree" not in named and "layouts" not in named  # no module of theirs either


def test_smartindex_has_one_cover():
    assert not hasattr(SmartIndexManager, "cover_semantic")
    assert not hasattr(SmartIndexManager, "_probe_atom_semantic")


@pytest.mark.parametrize(
    "path",
    [SmartIndexManager(), BTreeIndex()],
    ids=["smartindex", "btree"],
)
def test_every_probe_returns_mask_missing_charge(path):
    block = Block.from_arrays("b", Schema.of(x=DataType.INT64), {"x": np.arange(8)})
    clauses = to_cnf(parse_expression("x < 5")).clauses
    mask, missing, charge = path.probe("b", clauses, block, 0.0)
    assert mask is None or mask.dtype == np.bool_
    assert isinstance(charge(TaskExecutionReport("t"), ("x",)), bool)
