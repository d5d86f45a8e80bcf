"""Conjunctive-form simplification.

Drill-down sessions (§IV-A) pile predicates onto the same columns —
``a > 3 AND a > 5`` and worse.  Before the scan CNF reaches SmartIndex
and the executor, the planner normalizes it:

* **domination**: among single-atom clauses on one column, keep only the
  tightest bound per direction (``a > 3 AND a > 5`` → ``a > 5``);
* **equality propagation**: an equality absorbs every ordered bound it
  satisfies (``a = 4 AND a > 3`` → ``a = 4``);
* **contradiction detection**: an unsatisfiable conjunction
  (``a > 5 AND a < 3``, ``a = 1 AND a = 2``) marks the whole filter
  *empty* — the planner then produces zero tasks.

Simplification is semantics-preserving (property-tested) and improves
index reuse: fewer, canonical conjuncts mean fewer distinct cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm, admits
from repro.sql.ast import BinaryOperator


@dataclass
class SimplifiedForm:
    """Result of :func:`simplify_cnf`."""

    cnf: ConjunctiveForm
    #: True when the conjunction is provably unsatisfiable.
    contradiction: bool = False
    #: Atoms removed as redundant (for EXPLAIN/debugging).
    removed: Tuple[str, ...] = ()


def simplify_cnf(cnf: ConjunctiveForm) -> SimplifiedForm:
    """Simplify; multi-atom (OR) and residual clauses pass through."""
    passthrough: List[Clause] = []
    singles: Dict[str, List[AtomicPredicate]] = {}
    for clause in cnf.clauses:
        if clause.is_indexable and len(clause.atoms) == 1:
            atom = clause.atoms[0]
            singles.setdefault(atom.column, []).append(atom)
        else:
            passthrough.append(clause)

    kept: List[Clause] = []
    removed: List[str] = []
    for column in sorted(singles):
        atoms = singles[column]
        survivors, contradiction = _simplify_column(atoms)
        if contradiction:
            return SimplifiedForm(ConjunctiveForm([]), contradiction=True)
        removed.extend(a.key for a in atoms if a not in survivors)
        kept.extend(Clause((a,)) for a in survivors)
    return SimplifiedForm(
        ConjunctiveForm(kept + passthrough), removed=tuple(removed)
    )


def _simplify_column(atoms: List[AtomicPredicate]) -> Tuple[List[AtomicPredicate], bool]:
    """Simplify the conjunction of single-column atoms.

    Only numeric/orderable comparisons participate; CONTAINS and
    mixed-type oddities pass through untouched.  The atoms' bounds
    narrow one span: the largest lower bound and the smallest upper
    bound survive, an exclusive one winning a tie.
    """
    ordered = [a for a in atoms if _comparable(a)]
    rest = [a for a in atoms if not _comparable(a)]
    if not ordered:
        return _dedupe(atoms), False

    inequalities = [a for a in ordered if a.bounds is None]
    lowers = [a for a in ordered if a.bounds is not None and a.bounds[0] is not None]
    uppers = [a for a in ordered if a.bounds is not None and a.bounds[2] is not None]
    lower = max(lowers, key=lambda a: (a.bounds[0], not a.bounds[1])) if lowers else None
    upper = min(uppers, key=lambda a: (a.bounds[2], a.bounds[3])) if uppers else None
    low, low_inclusive = lower.bounds[:2] if lower is not None else (None, False)
    high, high_inclusive = upper.bounds[2:] if upper is not None else (None, False)
    if lower is not None and upper is not None:
        if not (low < high or (low == high and low_inclusive and high_inclusive)):
            return [], True
    span = (low, low_inclusive, high, high_inclusive)
    # NE atoms whose value lies outside the span are vacuous.
    relevant = [a for a in inequalities if admits(span, a.value)]
    equalities = [a for a in lowers if a.bounds[2] is not None]
    if equalities:
        # The span is the equalities' one value: an inequality there contradicts.
        if relevant:
            return [], True
        return _dedupe([equalities[0]] + rest), False
    survivors = [a for a in (lower, upper) if a is not None]
    return _dedupe(survivors + relevant + rest), False


def _comparable(atom: AtomicPredicate) -> bool:
    if atom.op is BinaryOperator.CONTAINS:
        return False
    return isinstance(atom.value, (int, float)) and not isinstance(atom.value, bool)


def _dedupe(atoms: List[AtomicPredicate]) -> List[AtomicPredicate]:
    seen = set()
    out = []
    for a in atoms:
        if a.key not in seen:
            seen.add(a.key)
            out.append(a)
    return out
