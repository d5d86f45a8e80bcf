"""Physical planning: query → dissectable task graph.

The master "dissects a query plan into sub-plans based on the information
of available stem servers and dispatch the sub-plans to them" (§III-B).
In this reproduction a :class:`PhysicalPlan` consists of:

* one :class:`ScanTask` per surviving base-table block (blocks pruned by
  catalog range statistics never become tasks);
* :class:`BroadcastTable` descriptors for joined dimension tables, which
  leaves receive alongside their sub-plan (star-schema joins execute at
  the leaves against broadcast dimensions);
* the CNF of the WHERE clause split into base-table *scan predicates*
  (SmartIndex's domain) and a *post-join residual*;
* the aggregation/ordering/limit fragment executed bottom-up through the
  tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.table import BlockRef, Table
from repro.errors import PlanError
from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm, to_cnf
from repro.planner.simplify import simplify_cnf
from repro.sql.analyzer import AnalyzedQuery
from repro.sql.ast import (
    AggregateCall,
    BinaryOp,
    BinaryOperator,
    Column,
    Expr,
    JoinKind,
    walk,
)

_plan_counter = itertools.count()


@dataclass(frozen=True)
class ScanTask:
    """One unit of leaf work: scan/filter/partially-aggregate one block."""

    task_id: str
    table_name: str
    binding: str
    block: BlockRef
    #: Columns this task must read (projection pushdown).
    columns: Tuple[str, ...]
    #: Half-open row range ``[lo, hi)`` of the block this task covers.
    #: ``None`` (the default, and the only value the static planner ever
    #: produces) means the whole block.  The adaptive re-optimizer (S53)
    #: slices tasks for pilot waves and hot-partition splits; a sliced
    #: task charges I/O and CPU proportionally and never touches the
    #: SmartIndex (a partial-block mask would poison full-block answers).
    row_slice: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class BroadcastTable:
    """A joined dimension table shipped whole to every leaf."""

    binding: str
    table_name: str
    columns: Tuple[str, ...]
    kind: JoinKind
    condition: Optional[Expr]


@dataclass
class PhysicalPlan:
    """Everything workers and the master need to run one query."""

    plan_id: str
    analyzed: AnalyzedQuery
    tasks: List[ScanTask]
    broadcasts: List[BroadcastTable]
    #: Conjuncts over base-table columns only — evaluated at scan time
    #: and eligible for SmartIndex reuse.
    scan_cnf: ConjunctiveForm
    #: Remaining WHERE parts (cross-table, residual) evaluated post-join.
    post_filter: Optional[Expr]
    #: Base-table columns later stages need beyond predicate evaluation
    #: (outputs, grouping, joins, residual filters).  When SmartIndex
    #: fully covers the scan filter, these are the *only* chunks read.
    payload_columns: Tuple[str, ...] = ()
    #: Blocks skipped outright by catalog range statistics.
    pruned_blocks: int = 0

    @property
    def is_aggregate(self) -> bool:
        return self.analyzed.is_aggregate

    @property
    def has_joins(self) -> bool:
        return bool(self.broadcasts)

    @cached_property
    def task_signature_base(self) -> Tuple:
        """What every task of this plan shares of its structural identity
        (:func:`repro.cluster.jobs.task_signature`): scan predicates,
        aggregation fragment, residual filter and broadcast joins.  Built
        once per plan — re-planning never rewrites these fields."""
        analyzed = self.analyzed
        return (
            tuple(sorted(str(c) for c in self.scan_cnf.clauses)),
            self.is_aggregate,
            (
                tuple(str(k) for k in analyzed.group_keys),
                tuple((a.func, str(a.argument)) for a in analyzed.aggregates),
            ),
            str(self.post_filter),
            tuple(
                (bc.binding, bc.table_name, bc.columns, bc.kind.value, str(bc.condition))
                for bc in self.broadcasts
            ),
        )

    def scan_predicate_keys(self) -> List[str]:
        """Canonical keys of every indexable scan atom (similarity stats)."""
        return self.scan_cnf.predicate_keys()

    def estimated_scan_bytes(self) -> int:
        return sum(t.block.bytes_for(t.columns) for t in self.tasks)


def build_plan(analyzed: AnalyzedQuery) -> PhysicalPlan:
    """Construct the physical plan for an analyzed query."""
    query = analyzed.query
    base_binding = analyzed.base_binding
    base_table = analyzed.tables[base_binding]

    simplified = simplify_cnf(to_cnf(query.where))
    if simplified.contradiction:
        # Unsatisfiable WHERE: the whole table prunes away at plan time.
        return PhysicalPlan(
            plan_id=f"plan-{next(_plan_counter)}",
            analyzed=analyzed,
            tasks=[],
            broadcasts=_build_broadcasts(analyzed),
            scan_cnf=ConjunctiveForm([]),
            post_filter=None,
            payload_columns=(),
            pruned_blocks=len(base_table.blocks),
        )
    cnf = simplified.cnf
    scan_clauses, residual_clauses = _split_clauses(cnf, analyzed, base_binding)
    scan_cnf = ConjunctiveForm(scan_clauses)
    post_filter = _clauses_to_expr(residual_clauses)

    broadcasts = _build_broadcasts(analyzed)
    payload_columns = _payload_columns(analyzed, base_binding, post_filter)
    base_columns = sorted(
        set(payload_columns).union(*(c.columns for c in scan_cnf.clauses))
        if scan_cnf.clauses
        else set(payload_columns)
    )

    plan_id = f"plan-{next(_plan_counter)}"
    tasks: List[ScanTask] = []
    pruned = 0
    for ref in base_table.blocks:
        if _prunable(ref, scan_cnf):
            pruned += 1
            continue
        tasks.append(
            ScanTask(
                task_id=f"{plan_id}/t{len(tasks)}",
                table_name=base_table.name,
                binding=base_binding,
                block=ref,
                columns=tuple(base_columns),
            )
        )
    return PhysicalPlan(
        plan_id=plan_id,
        analyzed=analyzed,
        tasks=tasks,
        broadcasts=broadcasts,
        scan_cnf=scan_cnf,
        post_filter=post_filter,
        payload_columns=tuple(payload_columns),
        pruned_blocks=pruned,
    )


def _split_clauses(
    cnf: ConjunctiveForm, analyzed: AnalyzedQuery, base_binding: str
) -> Tuple[List[Clause], List[Clause]]:
    """Clauses referencing only base-table columns become scan predicates."""
    scan: List[Clause] = []
    residual: List[Clause] = []
    for clause in cnf.clauses:
        if clause.is_indexable and _clause_on_base(clause, analyzed, base_binding):
            scan.append(clause)
        else:
            residual.append(clause)
    return scan, residual


def _clause_on_base(clause: Clause, analyzed: AnalyzedQuery, base_binding: str) -> bool:
    for atom in clause.atoms:
        res = analyzed.resolutions.get((None, atom.column)) or analyzed.resolutions.get(
            (base_binding, atom.column)
        )
        if res is None or res.binding != base_binding:
            return False
    return True


def _clauses_to_expr(clauses: Sequence[Clause]) -> Optional[Expr]:
    if not clauses:
        return None
    exprs = [c.to_expr() for c in clauses]
    out = exprs[0]
    for e in exprs[1:]:
        out = BinaryOp(BinaryOperator.AND, out, e)
    return out


def _build_broadcasts(analyzed: AnalyzedQuery) -> List[BroadcastTable]:
    broadcasts = []

    def add(binding: str, kind: JoinKind, condition: Optional[Expr]) -> None:
        columns = analyzed.columns_of(binding)
        table = analyzed.tables[binding]
        if not columns:
            # Joined but never referenced: still need the join keys for
            # cardinality semantics; fall back to the full narrow schema.
            columns = table.schema.names[:1]
        broadcasts.append(
            BroadcastTable(
                binding=binding,
                table_name=table.name,
                columns=tuple(columns),
                kind=kind,
                condition=condition,
            )
        )

    # §III-A's comma-separated FROM list: old-style joins.  Tables after
    # the first broadcast as cross products; join predicates written in
    # the WHERE clause land in the post-join residual filter.
    for ref in analyzed.query.tables[1:]:
        add(ref.binding, JoinKind.CROSS, None)
    for join in analyzed.query.joins:
        add(join.table.binding, join.kind, join.condition)
    return broadcasts


def _payload_columns(
    analyzed: AnalyzedQuery, base_binding: str, post_filter: Optional[Expr]
) -> List[str]:
    """Base-table columns needed by stages *after* the scan filter.

    Deliberately excludes the WHERE clause: columns referenced only by
    indexable scan predicates need no read when SmartIndex covers them.
    """
    exprs: List[Expr] = list(analyzed.output_exprs) + list(analyzed.group_keys)
    exprs.extend(agg.argument for agg in analyzed.aggregates)
    if analyzed.query.having is not None:
        exprs.append(analyzed.query.having)
    for item in analyzed.query.order_by:
        exprs.append(item.expr)
    for join in analyzed.query.joins:
        if join.condition is not None:
            exprs.append(join.condition)
    if post_filter is not None:
        exprs.append(post_filter)
    needed = set()
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Column):
                res = analyzed.resolutions.get((node.table, node.name))
                if res is not None and res.binding == base_binding:
                    needed.add(res.field.name)
    return sorted(needed)


def _prunable(ref: BlockRef, scan_cnf: ConjunctiveForm) -> bool:
    """Can catalog range stats prove no row of this block matches?

    Sound for single-atom clauses: the clause must hold for some row, so
    if its range test fails for the whole block the block is dead.
    """
    for clause in scan_cnf.clauses:
        if len(clause.atoms) != 1 or clause.residuals:
            continue
        atom = clause.atoms[0]
        rng = ref.range_of(atom.column)
        if rng is None:
            continue
        lo, hi = rng
        if lo is None or hi is None:
            continue
        if _range_excludes(atom, lo, hi):
            return True
    return False


def _range_excludes(atom: AtomicPredicate, lo, hi) -> bool:
    op, v = atom.op, atom.value
    try:
        if op is BinaryOperator.EQ:
            return v < lo or v > hi
        if op is BinaryOperator.GT:
            return hi <= v
        if op is BinaryOperator.GE:
            return hi < v
        if op is BinaryOperator.LT:
            return lo >= v
        if op is BinaryOperator.LE:
            return lo > v
    except TypeError:
        return False
    return False  # NE / CONTAINS can't be range-pruned
