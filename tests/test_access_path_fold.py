"""The scan's access paths stay behind one fold.

``engine/executor.py`` folds whatever access paths the leaf hands it
through their ``probe``; it names none of them by type, so a new path,
or the deletion of one, touches the path and the leaf, never the
executor.  The SmartIndex answers a scan filter through one ``cover``,
semantic or not.
"""

import ast
from pathlib import Path

import repro.engine.executor as executor
from repro.index.smartindex import SmartIndexManager

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
