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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.columnar.table import BlockRef
from repro.errors import PlanError
from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm, to_cnf
from repro.planner.simplify import simplify_cnf
from repro.sql.analyzer import AnalyzedQuery
from repro.sql.ast import (
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


@dataclass(frozen=True)
class BroadcastTable:
    """A joined dimension table shipped whole to every leaf."""

    binding: str
    table_name: str
    columns: Tuple[str, ...]
    kind: JoinKind
    condition: Optional[Expr]
    #: ``(probe column, dimension column)`` pairs, as ``binding.field``
    #: names of the joined frame, when ``condition`` is a conjunction of
    #: equalities between this table and the base table or an earlier
    #: broadcast; None when the join is a filtered cross product.
    keys: Optional[Tuple[Tuple[str, str], ...]]


@dataclass(frozen=True)
class EagerJoin:
    """An aggregate a leaf may compute per join key before it joins (S67).

    Eager aggregation (Yan & Larson, VLDB 1995) is valid here when every
    broadcast is an INNER join on fact-column = dimension-column pairs,
    every aggregate reads only fact columns, every group key is a plain
    dimension column or a fact join-key column, and the residual filter
    reads only dimension columns.  What only the data can tell — that
    each dimension's key tuples are distinct and free of NaN — the leaf
    checks once per broadcast frame.
    """

    #: Fact columns the fact rows are grouped by.
    fact_keys: Tuple[str, ...]
    #: Per broadcast: positions in ``fact_keys`` and the dimension columns
    #: they equal, pairwise.
    joins: Tuple[Tuple[Tuple[int, ...], Tuple[str, ...]], ...]
    #: Per group key: its position in ``fact_keys``, or the
    #: ``binding.column`` name of the dimension column it reads.
    group_keys: Tuple[Union[int, str], ...]


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
    #: Set when a leaf may aggregate its fact rows before the joins.
    eager_join: Optional[EagerJoin] = None


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
    #: Derived once (a plan never changes): read for every task.
    is_aggregate: bool = field(init=False, repr=False, compare=False)
    has_joins: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_aggregate = self.analyzed.is_aggregate
        self.has_joins = bool(self.broadcasts)

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
    cnf = to_cnf(analyzed.query.where, base_binding)
    broadcasts = tuple(_build_broadcasts(analyzed))
    simplified = simplify_cnf(cnf)
    scan_cnf, post_filter, payload_columns = ConjunctiveForm([]), None, ()
    if not simplified.contradiction:
        scan_clauses, residual_clauses = _split_clauses(simplified.cnf, analyzed, base_binding)
        scan_cnf = ConjunctiveForm(scan_clauses)
        post_filter = ConjunctiveForm(residual_clauses).to_expr()
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
        eager_join=(
            _eager_join(analyzed, broadcasts, post_filter, payload_columns) if broadcasts else None
        ),
    )


def scan_blocks(analyzed: AnalyzedQuery) -> Tuple[List[BlockRef], int]:
    """The base table's *current* blocks that range statistics cannot
    prune, in block order, and how many they pruned.  A plan scans one
    task per block; the gateway prices a query from them unplanned."""
    shape = plan_shape(analyzed)
    base_table = analyzed.tables[analyzed.base_binding]
    for bc in shape.broadcasts:
        if bc.kind is JoinKind.RIGHT_OUTER and len(base_table.blocks) > 1:
            # Each task pads the dimension rows its own block did not
            # match, so over several blocks an unmatched row would be
            # padded once per block: refuse rather than answer wrong.
            raise PlanError(
                f"RIGHT JOIN {bc.table_name} needs a one-block {base_table.name}, "
                f"which has {len(base_table.blocks)} blocks"
            )
    if shape.contradiction:
        return [], len(base_table.blocks)
    blocks = [ref for ref in base_table.blocks if not _prunable(ref, shape.range_atoms)]
    return blocks, len(base_table.blocks) - len(blocks)


def build_plan(analyzed: AnalyzedQuery) -> PhysicalPlan:
    """Instantiate the physical plan of an analyzed query: a fresh plan id
    and one task per block :func:`scan_blocks` keeps."""
    shape = plan_shape(analyzed)
    base_binding = analyzed.base_binding
    table_name = analyzed.tables[base_binding].name
    blocks, pruned = scan_blocks(analyzed)
    plan_id = f"plan-{next(_plan_counter)}"
    tasks = [
        ScanTask(
            task_id=f"{plan_id}/t{i}",
            table_name=table_name,
            binding=base_binding,
            block=ref,
            columns=shape.base_columns,
        )
        for i, ref in enumerate(blocks)
    ]
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


def plan_fingerprint(plan: PhysicalPlan) -> str:
    """Stable structural digest of a plan.

    Covers what determines the answer and the work: scan predicates,
    residual filter, broadcasts, and per-task block/columns.
    ``QueryHistory`` records it with every query.
    """
    h = hashlib.blake2b(plan.shape.fingerprint_head, digest_size=8)
    for t in plan.tasks:
        h.update(f"|{t.block.block_id}:{','.join(t.columns)}".encode())
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


def equi_join_keys(condition: Expr) -> Optional[List[Tuple[Column, Column]]]:
    """The column pairs of an ON condition that is a conjunction of
    column equalities, each pair as written; None otherwise."""
    pairs: List[Tuple[Column, Column]] = []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op is BinaryOperator.AND:
            stack.extend((node.left, node.right))
            continue
        if not (
            isinstance(node, BinaryOp)
            and node.op is BinaryOperator.EQ
            and isinstance(node.left, Column)
            and isinstance(node.right, Column)
        ):
            return None
        pairs.append((node.left, node.right))
    return pairs


def _join_keys(
    analyzed: AnalyzedQuery, condition: Optional[Expr], binding: str, earlier: Sequence[str]
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """:attr:`BroadcastTable.keys` of the join of ``binding`` on ``condition``:
    each pair's sides come from ``analyzed.resolutions``, one on
    ``binding`` and the other on a binding in ``earlier``."""
    pairs = equi_join_keys(condition) if condition is not None else None
    if pairs is None:
        return None
    keys = []
    for a, b in pairs:
        probe = analyzed.resolutions.get((a.table, a.name))
        dim = analyzed.resolutions.get((b.table, b.name))
        if probe is not None and probe.binding == binding:
            probe, dim = dim, probe
        if probe is None or dim is None or probe.binding not in earlier or dim.binding != binding:
            return None
        keys.append((probe.qualified, dim.qualified))
    return tuple(keys)


def _build_broadcasts(analyzed: AnalyzedQuery) -> List[BroadcastTable]:
    broadcasts = []
    joined = [analyzed.base_binding]

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
                keys=_join_keys(analyzed, condition, binding, joined),
            )
        )
        joined.append(binding)

    # §III-A's comma-separated FROM list: old-style joins.  Tables after
    # the first broadcast as cross products; join predicates written in
    # the WHERE clause land in the post-join residual filter.
    for ref in analyzed.query.tables[1:]:
        add(ref.binding, JoinKind.CROSS, None)
    for join in analyzed.query.joins:
        add(join.table.binding, join.kind, join.condition)
    return broadcasts


def _eager_join(
    analyzed: AnalyzedQuery,
    broadcasts: Sequence[BroadcastTable],
    post_filter: Optional[Expr],
    payload_columns: Sequence[str],
) -> Optional[EagerJoin]:
    """The :class:`EagerJoin` of an aggregate over broadcast joins, or None."""
    if not analyzed.is_aggregate:
        return None
    base = analyzed.base_binding
    fact_prefix = base + "."
    dims = {bc.binding for bc in broadcasts}
    frame_columns = [(base, payload_columns)] + [(bc.binding, bc.columns) for bc in broadcasts]

    def reads_only(expr: Expr, bindings) -> bool:
        for node in walk(expr):
            if isinstance(node, Column):
                res = analyzed.resolutions.get((node.table, node.name))
                if res is not None:
                    binding = res.binding
                elif node.table is None:
                    # A residual atom has lost its qualifier; the joined
                    # frame resolves it to the first column of that name.
                    binding = next((b for b, cols in frame_columns if node.name in cols), None)
                else:
                    return False
                if binding not in bindings:
                    return False
        return True

    fact_keys: List[str] = []
    joins = []
    for bc in broadcasts:
        if bc.kind is not JoinKind.INNER or bc.keys is None:
            return None
        positions, dim_columns = [], []
        for probe, dim in bc.keys:
            if not probe.startswith(fact_prefix):
                return None
            fact = probe[len(fact_prefix):]
            if fact not in fact_keys:
                fact_keys.append(fact)
            positions.append(fact_keys.index(fact))
            dim_columns.append(dim[len(bc.binding) + 1:])
        joins.append((tuple(positions), tuple(dim_columns)))
    if not all(reads_only(agg.argument, (base,)) for agg in analyzed.aggregates):
        return None
    if post_filter is not None and not reads_only(post_filter, dims):
        return None
    group_keys: List[Union[int, str]] = []
    for key in analyzed.group_keys:
        res = analyzed.resolutions.get((key.table, key.name)) if isinstance(key, Column) else None
        if res is not None and res.binding in dims:
            group_keys.append(res.qualified)
        elif res is not None and res.binding == base and res.field.name in fact_keys:
            group_keys.append(fact_keys.index(res.field.name))
        else:
            return None
    return EagerJoin(tuple(fact_keys), tuple(joins), tuple(group_keys))


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
    """Does ``[lo, hi]`` lie wholly outside the atom's bounds?"""
    if atom.bounds is None:
        return False  # NE / CONTAINS can't be range-pruned
    low, low_inclusive, high, high_inclusive = atom.bounds
    try:
        return (low is not None and (hi < low or (hi == low and not low_inclusive))) or (
            high is not None and (lo > high or (lo == high and not high_inclusive))
        )
    except TypeError:
        return False
