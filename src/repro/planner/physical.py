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

Everything but the tasks depends on the statement alone: that half, the
:class:`PlanShape`, is derived once per analyzed statement and kept on
it; :func:`build_plan` instantiates tasks from the table's current blocks
on every execution.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.columnar.table import BlockRef
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


@dataclass(frozen=True)
class PlanShape:
    """The half of a plan that depends on the statement alone — the same
    for every execution, so it is derived once (:func:`plan_shape`)."""

    #: The WHERE clause is unsatisfiable: every block prunes away.
    contradiction: bool
    scan_cnf: ConjunctiveForm
    post_filter: Optional[Expr]
    broadcasts: Tuple[BroadcastTable, ...]
    payload_columns: Tuple[str, ...]
    #: What every task reads: the payload plus the scan predicates' columns.
    base_columns: Tuple[str, ...]
    #: Single-atom scan clauses, the ones catalog range statistics can prune on.
    range_atoms: Tuple[AtomicPredicate, ...]
    #: Keys of every atom of the WHERE clause as written (query history).
    predicate_keys: Tuple[str, ...]
    #: What every task shares of its structural identity
    #: (:func:`repro.cluster.jobs.task_signature`): scan predicates,
    #: aggregation fragment, residual filter and broadcast joins.
    task_signature_base: Tuple
    #: The statement half of :func:`plan_fingerprint`'s digest input.
    fingerprint_head: bytes


@dataclass
class PhysicalPlan:
    """Everything workers and the master need to run one query."""

    plan_id: str
    analyzed: AnalyzedQuery
    tasks: List[ScanTask]
    #: The statement half this plan instantiates; the fields below are its.
    shape: PlanShape
    broadcasts: Tuple[BroadcastTable, ...]
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
    #: Per broadcast, its table's block incarnations at instantiation.
    broadcast_incarnations: Tuple[Tuple[int, ...], ...] = ()

    @property
    def is_aggregate(self) -> bool:
        return self.analyzed.is_aggregate

    @property
    def has_joins(self) -> bool:
        return bool(self.broadcasts)

    def scan_predicate_keys(self) -> List[str]:
        """Canonical keys of every indexable scan atom (similarity stats)."""
        return self.scan_cnf.predicate_keys()

    def estimated_scan_bytes(self) -> int:
        return sum(t.block.bytes_for(t.columns) for t in self.tasks)


def plan_shape(analyzed: AnalyzedQuery) -> PlanShape:
    """The statement half of ``analyzed``'s plan, derived on first use and
    kept on the statement."""
    shape = analyzed._plan_shape  # noqa: SLF001 - the memo slot is this module's
    if shape is None:
        shape = analyzed._plan_shape = _derive_shape(analyzed)  # noqa: SLF001
    return shape


def _derive_shape(analyzed: AnalyzedQuery) -> PlanShape:
    base_binding = analyzed.base_binding
    cnf = to_cnf(analyzed.query.where)
    broadcasts = tuple(_build_broadcasts(analyzed))
    simplified = simplify_cnf(cnf)
    scan_cnf, post_filter, payload_columns = ConjunctiveForm([]), None, ()
    if not simplified.contradiction:
        scan_clauses, residual_clauses = _split_clauses(simplified.cnf, analyzed, base_binding)
        scan_cnf = ConjunctiveForm(scan_clauses)
        post_filter = _clauses_to_expr(residual_clauses)
        payload_columns = tuple(_payload_columns(analyzed, base_binding, post_filter))
    scan_key = tuple(sorted(str(c) for c in scan_cnf.clauses))
    head = [repr(scan_key), str(post_filter)]
    head.extend(f"|{bc.binding}:{bc.table_name}:{bc.kind.value}" for bc in broadcasts)
    return PlanShape(
        contradiction=simplified.contradiction,
        scan_cnf=scan_cnf,
        post_filter=post_filter,
        broadcasts=broadcasts,
        payload_columns=payload_columns,
        base_columns=tuple(
            sorted(set(payload_columns).union(*(c.columns for c in scan_cnf.clauses)))
        ),
        range_atoms=tuple(c.atoms[0] for c in scan_cnf.clauses if len(c.atoms) == 1),
        predicate_keys=tuple(cnf.predicate_keys()),
        task_signature_base=(
            scan_key,
            analyzed.is_aggregate,
            (
                tuple(str(k) for k in analyzed.group_keys),
                tuple((a.func, str(a.argument)) for a in analyzed.aggregates),
            ),
            str(post_filter),
            tuple(
                (bc.binding, bc.table_name, bc.columns, bc.kind.value, str(bc.condition))
                for bc in broadcasts
            ),
        ),
        fingerprint_head="".join(head).encode(),
    )


def build_plan(analyzed: AnalyzedQuery) -> PhysicalPlan:
    """Instantiate the physical plan of an analyzed query: a fresh plan id
    and one task per block of the base table's *current* block list that
    range statistics cannot prune."""
    shape = plan_shape(analyzed)
    base_binding = analyzed.base_binding
    base_table = analyzed.tables[base_binding]
    plan_id = f"plan-{next(_plan_counter)}"
    tasks: List[ScanTask] = []
    pruned = 0
    if shape.contradiction:
        pruned = len(base_table.blocks)
    else:
        for ref in base_table.blocks:
            if _prunable(ref, shape.range_atoms):
                pruned += 1
                continue
            tasks.append(
                ScanTask(
                    task_id=f"{plan_id}/t{len(tasks)}",
                    table_name=base_table.name,
                    binding=base_binding,
                    block=ref,
                    columns=shape.base_columns,
                )
            )
    return PhysicalPlan(
        plan_id=plan_id,
        analyzed=analyzed,
        tasks=tasks,
        shape=shape,
        broadcasts=shape.broadcasts,
        scan_cnf=shape.scan_cnf,
        post_filter=shape.post_filter,
        payload_columns=shape.payload_columns,
        pruned_blocks=pruned,
        broadcast_incarnations=tuple(
            tuple(ref.incarnation for ref in analyzed.tables[bc.binding].blocks)
            for bc in shape.broadcasts
        ),
    )


def plan_fingerprint(plan: PhysicalPlan, tasks: Optional[Sequence[ScanTask]] = None) -> str:
    """Stable structural digest of a plan (or of a revised task set).

    Covers what determines the answer and the work: scan predicates,
    residual filter, broadcasts, and per-task block/slice/columns.
    ``QueryHistory`` records the original plan's digest plus (after a
    re-plan) the revised one, so history and EXPLAIN ANALYZE agree.
    """
    chosen = plan.tasks if tasks is None else tasks
    h = hashlib.blake2b(plan.shape.fingerprint_head, digest_size=8)
    for t in chosen:
        h.update(f"|{t.block.block_id}:{t.row_slice}:{','.join(t.columns)}".encode())
    return h.hexdigest()


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


def _prunable(ref: BlockRef, range_atoms: Sequence[AtomicPredicate]) -> bool:
    """Can catalog range stats prove no row of this block matches?

    Sound for single-atom clauses: the clause must hold for some row, so
    if its range test fails for the whole block the block is dead.
    """
    for atom in range_atoms:
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
