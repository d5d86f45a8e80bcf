"""B+ tree secondary index — the baseline of Fig 9(b).

The paper compares SmartIndex against "B-tree index in Feisu": a
conventional per-column value index built ahead of queries.  What a
lookup reads is the tree's leaf level — one block's row positions in
value order — so that is all this keeps, bisected by
:func:`sorted_span`; the inner levels only set the lookup's cost, so
``height`` is the height of an order-``ORDER`` B+ tree bulk-loaded from
the block's distinct keys.

Why it loses to SmartIndex on this workload (§VI-B-1): a B-tree answers
*point and range* lookups on the indexed column, but (1) it cannot help
``CONTAINS`` predicates at all, (2) each query still pays result
materialization per matching row, and (3) it memorizes *values*, not
*predicate results*, so repeated predicate evaluation work is repaid
only partially.  :class:`BTreeIndex` is the baseline as a scan's access
path.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.planner.cnf import AtomicPredicate, Clause

#: Max keys per node.
ORDER = 64


def sorted_span(sorted_values: np.ndarray, bounds: Tuple) -> Tuple[int, int]:
    """``(start, stop)`` of the values an atom's ``bounds`` admits in an
    ascending array.  NaN sorts last and no bounds admit it; a NaN bound
    admits nothing."""
    low, low_inclusive, high, high_inclusive = bounds
    if low != low or high != high:  # a NaN literal
        return 0, 0
    start = 0
    if low is not None:
        start = int(np.searchsorted(sorted_values, low, "left" if low_inclusive else "right"))
    if high is not None:
        stop = int(np.searchsorted(sorted_values, high, "right" if high_inclusive else "left"))
    elif sorted_values.dtype.kind == "f":
        stop = int(np.searchsorted(sorted_values, np.nan))  # before the NaN tail
    else:
        stop = len(sorted_values)
    return start, max(start, stop)


class BPlusTree:
    """Read-only value index over one column of one block."""

    def __init__(self, values: np.ndarray):
        self.num_rows = len(values)
        rows = np.flatnonzero(values == values)  # every row but NaN
        self._rows = rows[np.argsort(values[rows], kind="stable")]
        self._keys = values[self._rows]
        changes = np.count_nonzero(self._keys[1:] != self._keys[:-1])
        self.num_keys = int(changes) + (len(self._keys) > 0)
        # Bulk load packs ORDER keys per leaf and ORDER children per node.
        nodes, self.height = max(-(-self.num_keys // ORDER), 1), 1
        while nodes > 1:
            nodes, self.height = -(-nodes // ORDER), self.height + 1

    # -- lookups ---------------------------------------------------------

    def search(self, key) -> np.ndarray:
        """Row positions where the column equals ``key``."""
        return self.range(key, key)

    def range(
        self,
        low=None,
        high=None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row positions with ``low (<|<=) value (<|<=) high``."""
        start, stop = sorted_span(self._keys, (low, low_inclusive, high, high_inclusive))
        return self._rows[start:stop]

    # -- predicate interface (what the leaf's access path calls) ----------

    def supports(self, atom: AtomicPredicate) -> bool:
        """B-trees answer the atoms that have bounds — not CONTAINS and
        not inequality (≠ selects nearly everything anyway)."""
        return atom.bounds is not None

    def evaluate(self, atom: AtomicPredicate) -> np.ndarray:
        """Boolean mask for an atom over this block's rows."""
        if atom.bounds is None:
            raise IndexError_(f"B+ tree cannot answer {atom.key}")
        start, stop = sorted_span(self._keys, atom.bounds)
        mask = np.zeros(self.num_rows, dtype=np.bool_)
        mask[self._rows[start:stop]] = True
        return mask


class BTreeIndex:
    """The B+ tree baseline as a scan's access path.

    Keeps one :class:`BPlusTree` per (block, column), built from the
    served block the first time a probe needs it (the paper prebuilds
    them, so building is off the query clock) and rebuilt in place when
    the probe's ``key`` names new bytes.
    """

    #: Built ahead of queries: a tree learns nothing from a scan.
    learn = None

    def __init__(self):
        #: (block id, column) -> (the probe ``key`` it was built under, tree).
        self.trees: Dict[Tuple[Hashable, str], Tuple[Hashable, BPlusTree]] = {}
        self.builds = 0

    def answers(self, atom: AtomicPredicate) -> bool:
        """An atom a tree :meth:`~BPlusTree.supports`."""
        return atom.bounds is not None

    def covers(self, clauses: Sequence[Clause]) -> bool:
        """Does a probe answer every clause (the placement estimate)?"""
        return bool(clauses) and all(
            clause.is_indexable and all(map(self.answers, clause.atoms)) for clause in clauses
        )

    def probe(self, key: Hashable, clauses: Sequence[Clause], block, now: float):
        """Answer the clauses whose every atom a tree answers.  The charge
        is each evaluated atom's traversal plus per-match
        materialization, also for the atoms of a clause that a later atom
        leaves unanswered, and counts ``btree_clauses``."""
        mask = None
        missing = []
        costs = []
        for clause in clauses:
            clause_mask = None
            for atom in clause.atoms if clause.is_indexable else ():
                tree = self._tree(key, block, atom)
                if tree is None:
                    clause_mask = None
                    break
                atom_mask = tree.evaluate(atom)
                costs.append(64.0 * tree.height + 2.0 * int(atom_mask.sum()))
                clause_mask = atom_mask if clause_mask is None else (clause_mask | atom_mask)
            if clause_mask is None:
                missing.append(clause)
            else:
                mask = clause_mask if mask is None else (mask & clause_mask)

        def charge(report, read) -> bool:
            for cost in costs:
                report.cpu_ops += cost
            report.btree_clauses += len(clauses) - len(missing)
            return False

        return mask, missing, charge

    def _tree(self, key, block, atom: AtomicPredicate) -> Optional[BPlusTree]:
        if not self.answers(atom) or atom.column not in block.chunks:
            return None
        slot = (block.block_id, atom.column)
        built = self.trees.get(slot)
        if built is None or built[0] != key:
            built = self.trees[slot] = (key, BPlusTree(block.column(atom.column)))
            self.builds += 1
        return built[1]
