"""Conjunctive-normal-form predicate analysis.

SmartIndex hinges on this module: "leaf servers will transform the
predicates in query sub-plans into conjunctive forms and check if there
exist a SmartIndex for each data block" (§IV-C-3).  The user-log analysis
of §IV-A likewise compares predicates *after* conversion to conjunctive
form.

The pipeline:

1. :func:`to_nnf` pushes NOT down to the leaves.  Negated comparisons
   fold into their complementary operator (``NOT c2 <= 5`` → ``c2 > 5``,
   the exact Fig 7 example); only ``NOT CONTAINS`` keeps a negation flag.
2. :func:`to_cnf` distributes OR over AND into a list of clauses.
3. Each clause disjunct is classified as an :class:`AtomicPredicate`
   (``column OP literal`` — indexable) or left as a residual expression.

:class:`AtomicPredicate.key` is the canonical identity used by the index
cache and by the query-similarity analysis: two textual variants of the
same predicate (``5 < c2`` vs ``c2 > 5``) share one key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import PlanError
from repro.planner.expressions import string_contains
from repro.sql.ast import (
    FLIPPED,
    NEGATED,
    BinaryOp,
    BinaryOperator,
    Column,
    Expr,
    Literal,
    NotOp,
    literal_value,
)

_ATOMIC_OPS = frozenset(NEGATED) | {BinaryOperator.CONTAINS}


@dataclass(frozen=True)
class AtomicPredicate:
    """Canonical ``column OP literal`` predicate.

    ``negated`` is only ever True for CONTAINS (ordered comparisons fold
    negation into the complementary operator instead).
    """

    column: str
    op: BinaryOperator
    value: Union[int, float, str, bool]
    negated: bool = False
    #: Cache identity: equal keys ⇔ equal predicate semantics.  Built with
    #: the atom, since every index probe of every task reads it.
    key: str = field(init=False, repr=False, compare=False)
    #: The values an ordered atom admits, ``(low, low_inclusive, high,
    #: high_inclusive)``, with ``None`` for an open side; ``None`` for NE
    #: and CONTAINS.  NaN lies inside no bounds (it fails every ordered
    #: comparison), so pruning, simplification, the B+ tree and sorted
    #: replicas read this instead of switching on the operator.
    bounds: Optional[Tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in _ATOMIC_OPS:
            raise PlanError(f"{self.op} is not an atomic comparison")
        if self.negated and self.op is not BinaryOperator.CONTAINS:
            raise PlanError("only CONTAINS predicates carry a negation flag")
        prefix = "NOT " if self.negated else ""
        object.__setattr__(self, "key", f"{prefix}{self.column} {self.op.value} {self.value!r}")
        op, v = self.op, self.value
        if op is BinaryOperator.EQ:
            bounds = (v, True, v, True)
        elif op is BinaryOperator.LT:
            bounds = (None, False, v, False)
        elif op is BinaryOperator.LE:
            bounds = (None, False, v, True)
        elif op is BinaryOperator.GT:
            bounds = (v, False, None, False)
        elif op is BinaryOperator.GE:
            bounds = (v, True, None, False)
        else:
            bounds = None
        object.__setattr__(self, "bounds", bounds)

    @property
    def base(self) -> "AtomicPredicate":
        """The un-negated predicate whose bitvector the index stores."""
        if not self.negated:
            return self
        return AtomicPredicate(self.column, self.op, self.value, negated=False)

    def complement(self) -> "AtomicPredicate":
        """The predicate whose bitvector is the bit-NOT of this one's.

        This is Fig 7's rewrite: a stored index for ``c2 > 5`` answers
        ``c2 <= 5`` through one in-memory NOT.
        """
        if self.op is BinaryOperator.CONTAINS:
            return AtomicPredicate(self.column, self.op, self.value, negated=not self.negated)
        return AtomicPredicate(self.column, NEGATED[self.op], self.value)

    def evaluate(self, column_values: np.ndarray) -> np.ndarray:
        """Evaluate over one column array; returns a boolean vector."""
        op = self.op
        if op is BinaryOperator.CONTAINS:
            result = string_contains(column_values, str(self.value))
            return ~result if self.negated else result
        if op is BinaryOperator.EQ:
            return column_values == self.value
        if op is BinaryOperator.NE:
            return column_values != self.value
        if op is BinaryOperator.LT:
            return column_values < self.value
        if op is BinaryOperator.LE:
            return column_values <= self.value
        if op is BinaryOperator.GT:
            return column_values > self.value
        return column_values >= self.value

    def to_expr(self) -> Expr:
        expr: Expr = BinaryOp(self.op, Column(self.column), Literal(self.value))
        return NotOp(expr) if self.negated else expr

    def __str__(self) -> str:
        return self.key


def admits(bounds: Tuple, value) -> bool:
    """Does ``value`` lie within ``bounds`` (an atom's ``bounds``)?"""
    low, low_inclusive, high, high_inclusive = bounds
    return (low is None or low < value or (low_inclusive and low == value)) and (
        high is None or value < high or (high_inclusive and value == high)
    )


@dataclass(frozen=True)
class Clause:
    """One CNF clause: a disjunction of atoms and residual expressions.

    A clause is *indexable* iff it has no residuals — then its bitvector
    is the OR of its atoms' vectors.
    """

    atoms: Tuple[AtomicPredicate, ...]
    residuals: Tuple[Expr, ...] = ()
    #: Built with the clause, since every index probe of every task reads it.
    is_indexable: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_indexable", not self.residuals and bool(self.atoms))

    @property
    def columns(self) -> Tuple[str, ...]:
        return tuple(sorted({a.column for a in self.atoms}))

    def to_expr(self) -> Expr:
        parts: List[Expr] = [a.to_expr() for a in self.atoms] + list(self.residuals)
        if not parts:
            raise PlanError("empty clause")
        out = parts[0]
        for p in parts[1:]:
            out = BinaryOp(BinaryOperator.OR, out, p)
        return out

    def __str__(self) -> str:
        parts = [str(a) for a in self.atoms] + [str(r) for r in self.residuals]
        return "(" + " OR ".join(parts) + ")"


@dataclass
class ConjunctiveForm:
    """A WHERE condition as AND-of-clauses."""

    clauses: List[Clause] = field(default_factory=list)
    #: :meth:`repro.planner.cost.CostModel.predicate_ops_per_row`, filled
    #: on first use — a form's clauses are not rewritten once built.
    _ops_per_row: Optional[float] = field(default=None, repr=False, compare=False)

    @property
    def indexable_clauses(self) -> List[Clause]:
        return [c for c in self.clauses if c.is_indexable]

    @property
    def atoms(self) -> List[AtomicPredicate]:
        """All atoms across all clauses (for similarity statistics)."""
        return [a for c in self.clauses for a in c.atoms]

    def predicate_keys(self) -> List[str]:
        return [a.key for a in self.atoms]

    def to_expr(self) -> Optional[Expr]:
        if not self.clauses:
            return None
        out = self.clauses[0].to_expr()
        for c in self.clauses[1:]:
            out = BinaryOp(BinaryOperator.AND, out, c.to_expr())
        return out

    def __str__(self) -> str:
        return " AND ".join(str(c) for c in self.clauses) if self.clauses else "TRUE"


# -- normalization ------------------------------------------------------------


def extract_atom(
    expr: Expr, negated: bool = False, binding: Optional[str] = None
) -> Optional[AtomicPredicate]:
    """Recognize ``column OP literal`` (either operand order).

    Returns None when the expression isn't atomic (arithmetic on the
    column, column-vs-column comparison, ...), and, given a ``binding``,
    when the column is qualified by another table: an atom names its
    column bare, so it may only stand for the scanned table's.
    """
    if isinstance(expr, NotOp):
        return extract_atom(expr.operand, not negated, binding)
    if not isinstance(expr, BinaryOp) or expr.op not in _ATOMIC_OPS:
        return None
    left, right, op = expr.left, expr.right, expr.op
    right_lit = literal_value(right)
    if isinstance(left, Column) and right_lit is not None:
        column, value = left, right_lit
    elif isinstance(right, Column) and op is not BinaryOperator.CONTAINS:
        column, op, value = right, FLIPPED[op], literal_value(left)
        if value is None:
            return None
    else:
        return None
    if binding is not None and column.table not in (None, binding):
        return None
    atom = AtomicPredicate(column.name, op, value)
    if negated:
        atom = atom.complement()
    return atom


def to_nnf(expr: Expr, negated: bool = False) -> Expr:
    """Push negation to the leaves (negation-normal form)."""
    if isinstance(expr, NotOp):
        return to_nnf(expr.operand, not negated)
    if isinstance(expr, BinaryOp) and expr.op in (BinaryOperator.AND, BinaryOperator.OR):
        op = expr.op
        if negated:
            op = BinaryOperator.OR if op is BinaryOperator.AND else BinaryOperator.AND
        return BinaryOp(op, to_nnf(expr.left, negated), to_nnf(expr.right, negated))
    if not negated:
        return expr
    if extract_atom(expr) is not None and expr.op in NEGATED:
        # ``NOT c2 <= 5`` → ``c2 > 5``, operands (and their qualifiers) kept.
        return BinaryOp(NEGATED[expr.op], expr.left, expr.right)
    return NotOp(expr)  # opaque leaf: keep the NOT


#: Clause-count cap for OR-over-AND distribution; beyond it the input is
#: kept as a single residual clause rather than exploding.
MAX_CNF_CLAUSES = 64


def to_cnf(expr: Optional[Expr], binding: Optional[str] = None) -> ConjunctiveForm:
    """Convert a boolean expression to conjunctive normal form.

    Given the scanned table's ``binding``, a comparison on a column that
    another binding qualifies stays a residual expression."""
    if expr is None:
        return ConjunctiveForm([])
    nnf = to_nnf(expr)
    raw_clauses = _distribute(nnf)
    if raw_clauses is None:
        # Distribution blew past the cap; degrade to one residual clause.
        return ConjunctiveForm([Clause(atoms=(), residuals=(nnf,))])
    clauses = []
    for disjuncts in raw_clauses:
        atoms: List[AtomicPredicate] = []
        residuals: List[Expr] = []
        for d in disjuncts:
            atom = extract_atom(d, binding=binding)
            if atom is not None:
                atoms.append(atom)
            else:
                residuals.append(d)
        clauses.append(Clause(tuple(atoms), tuple(residuals)))
    return ConjunctiveForm(_dedupe(clauses))


def _distribute(expr: Expr) -> Optional[List[List[Expr]]]:
    """Return CNF as a list of clauses (each a list of disjunct leaves),
    or None if the clause count would exceed :data:`MAX_CNF_CLAUSES`."""
    if isinstance(expr, BinaryOp) and expr.op is BinaryOperator.AND:
        left = _distribute(expr.left)
        right = _distribute(expr.right)
        if left is None or right is None:
            return None
        merged = left + right
        return merged if len(merged) <= MAX_CNF_CLAUSES else None
    if isinstance(expr, BinaryOp) and expr.op is BinaryOperator.OR:
        left = _distribute(expr.left)
        right = _distribute(expr.right)
        if left is None or right is None:
            return None
        product = [lc + rc for lc in left for rc in right]
        return product if len(product) <= MAX_CNF_CLAUSES else None
    return [[expr]]


def _dedupe(clauses: Sequence[Clause]) -> List[Clause]:
    seen = set()
    out: List[Clause] = []
    for c in clauses:
        key = (tuple(sorted(a.key for a in c.atoms)), tuple(str(r) for r in c.residuals))
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out
