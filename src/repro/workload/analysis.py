"""Trace analysis for §IV-A and Fig 8.

Feisu's optimizations were motivated by statistics computed over a
two-month (and, for keyword frequency, three-month) user query log:

* Fig 4 — number of *identical* columns accessed by multiple queries
  within a time span, for growing spans;
* Fig 5 — ratio of queries sharing at least one exact predicate (after
  conversion to conjunctive form) with another query in the span;
* Fig 8 — frequency of SQL keywords, showing scans/aggregations at
  ≥ 99 % of the workload.

These functions compute the same statistics over generated traces.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set

from repro.errors import ParseError
from repro.planner.cnf import to_cnf
from repro.sql.ast import Column, walk
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse
from repro.workload.generator import TimedQuery


def _query_columns(sql: str) -> Set[str]:
    query = parse(sql)
    out: Set[str] = set()
    exprs = [item.expr for item in query.select_items]
    if query.where is not None:
        exprs.append(query.where)
    exprs.extend(query.group_by)
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Column):
                out.add(node.name)
    return out


def _query_predicates(sql: str) -> Set[str]:
    """Canonical predicate keys after CNF conversion (the paper converts
    predicates 'to the conjunctive form' before comparing)."""
    query = parse(sql)
    return {a.key for a in to_cnf(query.where).atoms}


def _windows(log: Sequence[TimedQuery], span_s: float) -> List[List[TimedQuery]]:
    if not log:
        return []
    end = max(q.at_s for q in log)
    out = []
    start = 0.0
    while start <= end:
        window = [q for q in log if start <= q.at_s < start + span_s]
        if len(window) >= 2:
            out.append(window)
        start += span_s
    return out


def repeated_columns_by_span(
    log: Sequence[TimedQuery], spans_s: Iterable[float]
) -> Dict[float, float]:
    """Fig 4: average count of columns accessed by ≥ 2 queries per window."""
    cached = [(q, _query_columns(q.sql)) for q in log]
    result = {}
    for span in spans_s:
        counts = []
        for window in _windows(log, span):
            counter: Counter = Counter()
            for q in window:
                cols = next(c for qq, c in cached if qq is q)
                counter.update(cols)
            counts.append(sum(1 for _c, n in counter.items() if n >= 2))
        result[span] = sum(counts) / len(counts) if counts else 0.0
    return result


def same_predicate_ratio_by_span(
    log: Sequence[TimedQuery], spans_s: Iterable[float]
) -> Dict[float, float]:
    """Fig 5: fraction of queries sharing ≥ 1 exact predicate in-window."""
    preds = {id(q): _query_predicates(q.sql) for q in log}
    result = {}
    for span in spans_s:
        shared = 0
        total = 0
        for window in _windows(log, span):
            counter: Counter = Counter()
            for q in window:
                counter.update(preds[id(q)])
            for q in window:
                total += 1
                if any(counter[k] >= 2 for k in preds[id(q)]):
                    shared += 1
        result[span] = shared / total if total else 0.0
    return result


#: Keywords counted for the Fig 8 histogram.
KEYWORDS_OF_INTEREST = (
    "SELECT", "FROM", "WHERE", "AND", "OR", "CONTAINS",
    "GROUP", "ORDER", "LIMIT", "JOIN", "HAVING",
)
AGGREGATE_KEYWORDS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def keyword_frequency(sqls: Iterable[str]) -> Dict[str, int]:
    """Fig 8: keyword occurrence counts over a query corpus."""
    counter: Counter = Counter()
    for sql in sqls:
        try:
            tokens = tokenize(sql)
        except ParseError:
            continue
        for token in tokens:
            if token.type is TokenType.KEYWORD:
                counter[token.text] += 1
            elif token.type is TokenType.IDENTIFIER and token.text.upper() in AGGREGATE_KEYWORDS:
                counter[token.text.upper()] += 1
    return dict(counter)


def scan_query_share(sqls: Sequence[str]) -> float:
    """Fraction of queries that are scans/aggregations (no JOIN) — the
    ≥ 99 % observation motivating the scan-centric evaluation (§VI-A)."""
    if not sqls:
        return 0.0
    scans = 0
    for sql in sqls:
        try:
            query = parse(sql)
        except ParseError:
            continue
        if not query.joins:
            scans += 1
    return scans / len(sqls)
