"""Semantic analysis: name resolution, type checking, aggregate rules.

The job manager "analyze[s] query execution semantics" before admitting a
job (§III-C); this module is that step.  It binds table references
against the catalog, resolves (possibly qualified) column names, infers
types, enforces grouping rules, folds ``WITHIN`` scopes into group keys,
and computes the output schema.

The result is an :class:`AnalyzedQuery`, the planner's input.
:func:`analyze_sql` is the one entry point from SQL text: it parses and
analyzes each statement once per catalog and keeps the result.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.schema import DataType, Field, Schema, common_type
from repro.columnar.table import Catalog, Table
from repro.errors import AnalysisError, ParseError
from repro.sql.ast import (
    FLIPPED,
    AggregateCall,
    BinaryOp,
    BinaryOperator,
    Column,
    Expr,
    FunctionCall,
    JoinClause,
    JoinKind,
    Literal,
    Negate,
    NotOp,
    OrderItem,
    Query,
    SelectItem,
    Star,
    contains_aggregate,
    literal_value,
    walk,
)
from repro.sql.parser import parse

_AGG_RESULT_TYPE = {
    "COUNT": lambda t: DataType.INT64,
    "SUM": lambda t: t,
    "AVG": lambda t: DataType.FLOAT64,
    "MIN": lambda t: t,
    "MAX": lambda t: t,
}

_SCALAR_SIGNATURES = {
    "LENGTH": ((DataType.STRING,), DataType.INT64),
    "LOWER": ((DataType.STRING,), DataType.STRING),
    "UPPER": ((DataType.STRING,), DataType.STRING),
    "ABS": (None, None),  # numeric identity, checked specially
}


@dataclass
class ResolvedColumn:
    """Where a column reference landed: binding name + field."""

    binding: str
    table: Table
    field: Field

    @property
    def qualified(self) -> str:
        return f"{self.binding}.{self.field.name}"


@dataclass
class AnalyzedQuery:
    """A query that passed semantic analysis."""

    query: Query
    #: binding name (alias or table name) -> Table, in FROM/JOIN order.
    tables: Dict[str, Table]
    #: (table_qualifier_or_None, column_name) -> resolution.
    resolutions: Dict[Tuple[Optional[str], str], ResolvedColumn]
    #: output column names, in select order.
    output_names: List[str]
    #: expressions producing each output column (Star already expanded).
    output_exprs: List[Expr]
    output_schema: Schema
    #: full grouping key list: explicit GROUP BY plus folded WITHIN exprs.
    group_keys: List[Expr]
    #: every aggregate call in SELECT/HAVING/ORDER BY.
    aggregates: List[AggregateCall]
    #: name of the first FROM table — the scan driver.
    base_binding: str
    #: :meth:`columns_of` answers per binding, filled on first use — the
    #: query is not rewritten once analysis has returned it.
    _columns_of: Dict[str, List[str]] = field(default_factory=dict, repr=False, compare=False)
    #: The statement half of its physical plan
    #: (:func:`repro.planner.physical.plan_shape`), filled on first use.
    _plan_shape: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def is_aggregate(self) -> bool:
        return bool(self.aggregates) or bool(self.group_keys)

    @cached_property
    def table_names(self) -> Tuple[str, ...]:
        """Names of the bound tables in FROM/JOIN order (what ACL checks read)."""
        return tuple(t.name for t in self.tables.values())

    @cached_property
    def touched_columns(self) -> Tuple[str, ...]:
        """Sorted names of the columns the WHERE clause and the select
        list mention (the per-user query history's column features)."""
        exprs = list(self.output_exprs)
        if self.query.where is not None:
            exprs.append(self.query.where)
        return tuple(
            sorted({node.name for expr in exprs for node in walk(expr) if isinstance(node, Column)})
        )

    def resolve(self, column: Column) -> ResolvedColumn:
        try:
            return self.resolutions[(column.table, column.name)]
        except KeyError:
            raise AnalysisError(f"unresolved column {column}") from None

    def type_of(self, expr: Expr) -> DataType:
        return _infer_type(expr, self)

    def columns_of(self, binding: str) -> List[str]:
        """Column names of ``binding`` referenced anywhere in the query
        (sorted; the list is shared between calls — do not mutate it)."""
        cached = self._columns_of.get(binding)
        if cached is not None:
            return cached
        wanted = set()
        exprs: List[Expr] = list(self.output_exprs) + list(self.group_keys)
        if self.query.where is not None:
            exprs.append(self.query.where)
        if self.query.having is not None:
            exprs.append(self.query.having)
        for join in self.query.joins:
            if join.condition is not None:
                exprs.append(join.condition)
        for item in self.query.order_by:
            exprs.append(item.expr)
        for expr in exprs:
            for node in walk(expr):
                if isinstance(node, Column):
                    res = self.resolutions.get((node.table, node.name))
                    if res is not None and res.binding == binding:
                        wanted.add(res.field.name)
        columns = self._columns_of[binding] = sorted(wanted)
        return columns

    @property
    def order_by(self) -> Tuple[OrderItem, ...]:
        return self.query.order_by

    @property
    def limit(self) -> Optional[int]:
        return self.query.limit


def analyze(query: Query, catalog: Catalog) -> AnalyzedQuery:
    """Run full semantic analysis; raises :class:`AnalysisError` on any
    violation."""
    tables = _bind_tables(query, catalog)
    query = _fold_dotted_columns(query, tables)
    resolutions = _resolve_columns(query, tables)

    analyzed = AnalyzedQuery(
        query=query,
        tables=tables,
        resolutions=resolutions,
        output_names=[],
        output_exprs=[],
        output_schema=Schema([]),
        group_keys=[],
        aggregates=[],
        base_binding=query.tables[0].binding,
    )

    _expand_select(analyzed)
    _collect_grouping(analyzed)
    _check_aggregate_rules(analyzed)
    _check_where_having(analyzed)
    where = query.where and _exact_literals(query.where, analyzed)
    if where is not query.where:
        analyzed.query = replace(query, where=where)
    _check_join_conditions(analyzed)
    _check_order_by(analyzed)
    analyzed.output_schema = Schema(
        [
            Field(name, _infer_type(expr, analyzed))
            for name, expr in zip(analyzed.output_names, analyzed.output_exprs)
        ]
    )
    return analyzed


#: Analyzed statements each catalog keeps (:func:`analyze_sql`); the
#: oldest goes first, so statements no one repeats age out.
STATEMENT_CACHE_ENTRIES = 1024
#: Serializes inserts and evictions; lookups need no lock.
_statements_lock = threading.Lock()


def analyze_sql(sql: str, catalog: Catalog) -> AnalyzedQuery:
    """Parse and analyze ``sql`` against ``catalog``, once per statement.

    The result is kept on the catalog under the exact text and reused
    while every table it bound is still the catalog's table of that name
    (``is``): analysis reads only table identity and schema, a schema
    never changes once registered, and drop + reload or
    :meth:`Catalog.replace` registers a new object.  Access checks are the
    caller's, on every execution.  A syntax error raises a guided
    :class:`ParseError` (:func:`guided`) and nothing is kept."""
    statements = catalog.statements
    analyzed = statements.get(sql)
    if analyzed is not None and all(catalog.holds(t) for t in analyzed.tables.values()):
        return analyzed
    try:
        query = parse(sql)
    except ParseError as exc:
        raise guided(exc, sql) from None
    analyzed = analyze(query, catalog)
    with _statements_lock:
        statements.pop(sql, None)
        while len(statements) >= STATEMENT_CACHE_ENTRIES:
            del statements[next(iter(statements))]
        statements[sql] = analyzed
    return analyzed


#: Substring of a parser message -> how to fix the statement.
_HINTS: Sequence[Tuple[str, str]] = (
    ("expected FROM", "every query needs a FROM clause: SELECT ... FROM table"),
    ("expected expression", "check for a trailing comma or missing operand"),
    ("unterminated string", "string literals use single quotes: 'value'"),
    ("unknown function", "supported: COUNT SUM AVG MIN MAX LENGTH LOWER UPPER ABS"),
)


def guided(exc: ParseError, sql: str) -> ParseError:
    """``exc`` with a hint on how to fix the statement added to its
    message (the offset stays in ``position``; ``str()`` shows it once)."""
    message = exc.args[0]
    hint = next((hint for needle, hint in _HINTS if needle in message), "")
    return ParseError(f"{message}; {hint}" if hint else message, position=exc.position, text=sql)


# -- binding ---------------------------------------------------------------


def _fold_dotted_columns(query: Query, tables: Dict[str, Table]) -> Query:
    """Fold ``a.b`` into a flat column name when ``a`` is no table binding
    but some bound table has a flattened-json column literally named
    ``a.b`` (nested data is flattened into dotted columns, §III-A)."""
    from repro.sql.ast import map_columns  # local import, tiny helper

    def fold(col: Column) -> Column:
        if col.table is None or col.table in tables:
            return col
        dotted = f"{col.table}.{col.name}"
        if any(dotted in t.schema for t in tables.values()):
            return Column(dotted)
        return col

    def fix(expr: Optional[Expr]) -> Optional[Expr]:
        return map_columns(expr, fold) if expr is not None else None

    return Query(
        select_items=tuple(
            SelectItem(fix(item.expr), item.alias) for item in query.select_items
        ),
        tables=query.tables,
        joins=tuple(
            JoinClause(j.kind, j.table, fix(j.condition)) for j in query.joins
        ),
        where=fix(query.where),
        group_by=tuple(fix(g) for g in query.group_by),
        having=fix(query.having),
        order_by=tuple(OrderItem(fix(o.expr), o.ascending) for o in query.order_by),
        limit=query.limit,
    )


def _bind_tables(query: Query, catalog: Catalog) -> Dict[str, Table]:
    tables: Dict[str, Table] = {}
    refs = list(query.tables) + [j.table for j in query.joins]
    for ref in refs:
        if ref.binding in tables:
            raise AnalysisError(f"duplicate table binding {ref.binding!r}")
        tables[ref.binding] = catalog.get(ref.name)
    return tables


def _resolve_columns(
    query: Query, tables: Dict[str, Table]
) -> Dict[Tuple[Optional[str], str], ResolvedColumn]:
    resolutions: Dict[Tuple[Optional[str], str], ResolvedColumn] = {}
    columns: List[Column] = []
    for expr in _all_expressions(query):
        columns.extend(n for n in walk(expr) if isinstance(n, Column))
    select_aliases = {item.alias for item in query.select_items if item.alias}
    for col in columns:
        key = (col.table, col.name)
        if key in resolutions:
            continue
        if col.table is not None:
            if col.table not in tables:
                raise AnalysisError(f"unknown table qualifier {col.table!r} in {col}")
            table = tables[col.table]
            if col.name not in table.schema:
                raise AnalysisError(f"table {col.table!r} has no column {col.name!r}")
            resolutions[key] = ResolvedColumn(col.table, table, table.schema.field(col.name))
            continue
        hits = [
            (binding, table)
            for binding, table in tables.items()
            if col.name in table.schema
        ]
        if len(hits) > 1:
            raise AnalysisError(
                f"ambiguous column {col.name!r}: present in "
                f"{sorted(b for b, _ in hits)}"
            )
        if not hits:
            if col.name in select_aliases:
                continue  # alias references validated in group/order handling
            raise AnalysisError(f"unknown column {col.name!r}")
        binding, table = hits[0]
        resolutions[key] = ResolvedColumn(binding, table, table.schema.field(col.name))
    return resolutions


def _all_expressions(query: Query) -> List[Expr]:
    exprs: List[Expr] = [item.expr for item in query.select_items]
    exprs.extend(query.group_by)
    if query.where is not None:
        exprs.append(query.where)
    if query.having is not None:
        exprs.append(query.having)
    exprs.extend(item.expr for item in query.order_by)
    for join in query.joins:
        if join.condition is not None:
            exprs.append(join.condition)
    return exprs


# -- select list -------------------------------------------------------------


def _expand_select(analyzed: AnalyzedQuery) -> None:
    query = analyzed.query
    names: List[str] = []
    exprs: List[Expr] = []
    for item in query.select_items:
        if isinstance(item.expr, Star):
            if len(query.select_items) != 1:
                raise AnalysisError("'*' must be the only select item")
            for binding, table in analyzed.tables.items():
                for f in table.schema:
                    names.append(f.name if len(analyzed.tables) == 1 else f"{binding}.{f.name}")
                    col = Column(f.name, table=binding)
                    analyzed.resolutions.setdefault(
                        (binding, f.name), ResolvedColumn(binding, table, f)
                    )
                    exprs.append(col)
            continue
        names.append(item.alias or str(item.expr))
        exprs.append(item.expr)
    if len(set(names)) != len(names):
        raise AnalysisError(f"duplicate output column names in {names}")
    analyzed.output_names = names
    analyzed.output_exprs = exprs


# -- grouping / aggregates ----------------------------------------------------


def _alias_target(analyzed: AnalyzedQuery, expr: Expr) -> Expr:
    """Map an alias reference (bare column matching a select alias) to the
    aliased select expression; otherwise return ``expr`` unchanged."""
    if isinstance(expr, Column) and expr.table is None:
        if (None, expr.name) not in analyzed.resolutions:
            for name, out in zip(analyzed.output_names, analyzed.output_exprs):
                if name == expr.name:
                    return out
    return expr


def _collect_grouping(analyzed: AnalyzedQuery) -> None:
    keys: List[Expr] = []
    for g in analyzed.query.group_by:
        target = _alias_target(analyzed, g)
        if contains_aggregate(target):
            raise AnalysisError(f"aggregate not allowed in GROUP BY: {target}")
        keys.append(target)
    # Fold WITHIN scopes (Dremel-style) into the grouping keys.  ORDER BY
    # may sort on aggregates that aren't selected; collect those too so
    # the executor materializes them.
    extra: List[Expr] = []
    if analyzed.query.having is not None:
        extra.append(analyzed.query.having)
    extra.extend(item.expr for item in analyzed.query.order_by)
    for expr in analyzed.output_exprs + extra:
        for node in walk(expr):
            if isinstance(node, AggregateCall):
                if node not in analyzed.aggregates:
                    analyzed.aggregates.append(node)
                if node.within is not None:
                    if contains_aggregate(node.within):
                        raise AnalysisError("aggregate not allowed inside WITHIN")
                    if node.within not in keys:
                        keys.append(node.within)
    analyzed.group_keys = keys


def _check_aggregate_rules(analyzed: AnalyzedQuery) -> None:
    for agg in analyzed.aggregates:
        for node in walk(agg.argument):
            if isinstance(node, AggregateCall):
                raise AnalysisError(f"nested aggregate in {agg}")
        if not isinstance(agg.argument, Star):
            _infer_type(agg.argument, analyzed)  # type check the argument
            if agg.func in ("SUM", "AVG"):
                arg_type = _infer_type(agg.argument, analyzed)
                if not arg_type.is_numeric:
                    raise AnalysisError(f"{agg.func} requires a numeric argument, got {arg_type.value}")
        elif agg.func != "COUNT":
            raise AnalysisError(f"'*' is only valid in COUNT(*), not {agg.func}(*)")
    if not analyzed.is_aggregate:
        return
    for name, expr in zip(analyzed.output_names, analyzed.output_exprs):
        if contains_aggregate(expr):
            continue
        if not _is_grouped(expr, analyzed):
            raise AnalysisError(
                f"output column {name!r} is neither aggregated nor a grouping key"
            )


def _is_grouped(expr: Expr, analyzed: AnalyzedQuery) -> bool:
    """True if ``expr`` only depends on grouping keys."""
    if expr in analyzed.group_keys:
        return True
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, Column):
        return False
    kids = expr.children()
    return bool(kids) and all(_is_grouped(k, analyzed) for k in kids)


def _check_where_having(analyzed: AnalyzedQuery) -> None:
    where = analyzed.query.where
    if where is not None:
        if contains_aggregate(where):
            raise AnalysisError("aggregates are not allowed in WHERE; use HAVING")
        if _infer_type(where, analyzed) is not DataType.BOOL:
            raise AnalysisError("WHERE condition must be boolean")
    having = analyzed.query.having
    if having is not None:
        if not analyzed.is_aggregate:
            raise AnalysisError("HAVING requires aggregation or GROUP BY")
        if _infer_type(having, analyzed) is not DataType.BOOL:
            raise AnalysisError("HAVING condition must be boolean")
        for node in walk(having):
            if isinstance(node, AggregateCall) and node not in analyzed.aggregates:
                analyzed.aggregates.append(node)


#: The int64 range, ``[INT64_MIN, INT64_END)``.
INT64_MIN, INT64_END = -(2**63), 2**63


def _exact_literals(expr: Expr, analyzed: AnalyzedQuery) -> Expr:
    """``expr`` with each ``column OP literal`` under AND / OR / NOT put
    in the column's domain, so that numpy and Python's exact comparison
    (every reader of an atom's ``bounds``) agree on it; ``expr`` itself
    where nothing moves.  An INT64 column takes an integral float as an
    int and a literal past int64 as a boolean literal; a FLOAT64 column
    takes an int that no double equals as its neighbouring doubles.
    """
    if isinstance(expr, NotOp):
        operand = _exact_literals(expr.operand, analyzed)
        return expr if operand is expr.operand else NotOp(operand)
    if not isinstance(expr, BinaryOp):
        return expr
    op, left, right = expr.op, expr.left, expr.right
    if op is BinaryOperator.AND or op is BinaryOperator.OR:
        new_left, new_right = _exact_literals(left, analyzed), _exact_literals(right, analyzed)
        if new_left is left and new_right is right:
            return expr
        return BinaryOp(op, new_left, new_right)
    if op not in FLIPPED:
        return expr
    if isinstance(left, Column):
        column, value = left, literal_value(right)
    elif isinstance(right, Column):
        column, op, value = right, FLIPPED[op], literal_value(left)
    else:
        return expr
    resolved = analyzed.resolutions.get((column.table, column.name))
    if resolved is None or isinstance(value, (bool, str)) or value is None:
        return expr
    dtype = resolved.field.dtype
    if dtype is DataType.INT64:
        if isinstance(value, float) and not value.is_integer():
            return expr  # a fraction (below 2^52), ±inf or NaN: numpy is exact
        if INT64_MIN <= value < INT64_END:
            return expr if isinstance(value, int) else BinaryOp(op, column, Literal(int(value)))
        # Past int64: every row lies on the same side of the literal.
        if op is BinaryOperator.EQ or op is BinaryOperator.NE:
            return Literal(op is BinaryOperator.NE)
        return Literal((op is BinaryOperator.LT or op is BinaryOperator.LE) == (value > 0))
    if dtype is not DataType.FLOAT64 or isinstance(value, float):
        return expr
    try:
        nearest = float(value)
    except OverflowError:
        nearest = math.inf if value > 0 else -math.inf
    if nearest == value:
        return expr
    # No double lies strictly between the literal's two neighbours.
    if op is BinaryOperator.EQ or op is BinaryOperator.NE:
        return Literal(op is BinaryOperator.NE)
    if nearest > value:
        below, above = math.nextafter(nearest, -math.inf), nearest
    else:
        below, above = nearest, math.nextafter(nearest, math.inf)
    if op is BinaryOperator.LT or op is BinaryOperator.LE:
        return BinaryOp(BinaryOperator.LE, column, Literal(below))
    return BinaryOp(BinaryOperator.GE, column, Literal(above))


def _check_join_conditions(analyzed: AnalyzedQuery) -> None:
    for join in analyzed.query.joins:
        if join.kind is JoinKind.CROSS:
            continue
        if join.condition is None:
            raise AnalysisError("non-CROSS join requires an ON condition")
        if contains_aggregate(join.condition):
            raise AnalysisError("aggregates are not allowed in join conditions")
        if _infer_type(join.condition, analyzed) is not DataType.BOOL:
            raise AnalysisError("join condition must be boolean")


def _check_order_by(analyzed: AnalyzedQuery) -> None:
    for item in analyzed.query.order_by:
        target = _alias_target(analyzed, item.expr)
        if isinstance(target, Column) and (target.table, target.name) not in analyzed.resolutions:
            if target.name not in analyzed.output_names:
                raise AnalysisError(f"ORDER BY references unknown column {target}")
            continue
        _infer_type(target, analyzed)


# -- type inference ----------------------------------------------------------


def _infer_type(expr: Expr, analyzed: AnalyzedQuery) -> DataType:
    if isinstance(expr, Literal):
        return DataType.from_value(expr.value)
    if isinstance(expr, Column):
        key = (expr.table, expr.name)
        if key in analyzed.resolutions:
            return analyzed.resolutions[key].field.dtype
        # alias reference (ORDER BY / GROUP BY position)
        for name, out in zip(analyzed.output_names, analyzed.output_exprs):
            if name == expr.name and out is not expr:
                return _infer_type(out, analyzed)
        raise AnalysisError(f"unresolved column {expr}")
    if isinstance(expr, Star):
        raise AnalysisError("'*' is not a scalar expression")
    if isinstance(expr, Negate):
        inner = _infer_type(expr.operand, analyzed)
        if not inner.is_numeric:
            raise AnalysisError(f"unary minus needs a numeric operand, got {inner.value}")
        return inner
    if isinstance(expr, NotOp):
        if _infer_type(expr.operand, analyzed) is not DataType.BOOL:
            raise AnalysisError("NOT needs a boolean operand")
        return DataType.BOOL
    if isinstance(expr, AggregateCall):
        if isinstance(expr.argument, Star):
            arg_type = DataType.INT64
        else:
            arg_type = _infer_type(expr.argument, analyzed)
        return _AGG_RESULT_TYPE[expr.func](arg_type)
    if isinstance(expr, FunctionCall):
        return _infer_function_type(expr, analyzed)
    if isinstance(expr, BinaryOp):
        return _infer_binary_type(expr, analyzed)
    raise AnalysisError(f"unsupported expression node {type(expr).__name__}")


def _infer_function_type(expr: FunctionCall, analyzed: AnalyzedQuery) -> DataType:
    if expr.name == "ABS":
        if len(expr.args) != 1:
            raise AnalysisError("ABS takes exactly one argument")
        inner = _infer_type(expr.args[0], analyzed)
        if not inner.is_numeric:
            raise AnalysisError("ABS needs a numeric argument")
        return inner
    signature = _SCALAR_SIGNATURES.get(expr.name)
    if signature is None:
        raise AnalysisError(f"unknown function {expr.name!r}")
    arg_types, result = signature
    if len(expr.args) != len(arg_types):
        raise AnalysisError(f"{expr.name} takes {len(arg_types)} argument(s)")
    for arg, expected in zip(expr.args, arg_types):
        actual = _infer_type(arg, analyzed)
        if actual is not expected:
            raise AnalysisError(
                f"{expr.name} expects {expected.value}, got {actual.value}"
            )
    return result


def _infer_binary_type(expr: BinaryOp, analyzed: AnalyzedQuery) -> DataType:
    left = _infer_type(expr.left, analyzed)
    right = _infer_type(expr.right, analyzed)
    op = expr.op
    if op is BinaryOperator.CONTAINS:
        if left is not DataType.STRING or right is not DataType.STRING:
            raise AnalysisError("CONTAINS requires string operands")
        return DataType.BOOL
    if op.is_comparison:
        common_type(left, right)  # raises on incomparable types
        return DataType.BOOL
    if op.is_boolean:
        if left is not DataType.BOOL or right is not DataType.BOOL:
            raise AnalysisError(f"{op.value} requires boolean operands")
        return DataType.BOOL
    # arithmetic
    if not left.is_numeric or not right.is_numeric:
        raise AnalysisError(f"{op.value} requires numeric operands")
    if op is BinaryOperator.DIV:
        return DataType.FLOAT64
    return common_type(left, right)
