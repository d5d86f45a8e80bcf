"""CNF simplification: domination, equality propagation, contradictions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.planner.cnf import to_cnf
from repro.planner.expressions import Frame, evaluate
from repro.planner.simplify import simplify_cnf
from repro.sql.ast import BinaryOp, BinaryOperator, Column, Literal
from repro.sql.parser import parse_expression

_OPS = {op.value: op for op in BinaryOperator}


def _simplify(text):
    return simplify_cnf(to_cnf(parse_expression(text)))


def test_lower_bound_domination():
    s = _simplify("a > 3 AND a > 5")
    assert s.cnf.predicate_keys() == ["a > 5"]
    assert "a > 3" in s.removed


def test_upper_bound_domination():
    s = _simplify("a < 10 AND a <= 4 AND a < 7")
    assert s.cnf.predicate_keys() == ["a <= 4"]


def test_strict_beats_nonstrict_on_tie():
    assert _simplify("a > 5 AND a >= 5").cnf.predicate_keys() == ["a > 5"]
    assert _simplify("a < 5 AND a <= 5").cnf.predicate_keys() == ["a < 5"]


def test_equality_absorbs_consistent_bounds():
    s = _simplify("a = 4 AND a > 3 AND a <= 10 AND a != 7")
    assert s.cnf.predicate_keys() == ["a = 4"]
    assert not s.contradiction


def test_equality_contradiction_with_bounds():
    assert _simplify("a = 4 AND a > 5").contradiction
    assert _simplify("a = 4 AND a != 4").contradiction
    assert _simplify("a = 4 AND a = 5").contradiction


def test_empty_range_contradiction():
    assert _simplify("a > 5 AND a < 3").contradiction
    assert _simplify("a > 5 AND a < 5").contradiction
    assert _simplify("a >= 5 AND a < 5").contradiction
    assert not _simplify("a >= 5 AND a <= 5").contradiction


def test_vacuous_ne_removed():
    s = _simplify("a > 10 AND a != 3")
    assert s.cnf.predicate_keys() == ["a > 10"]


def test_relevant_ne_kept():
    s = _simplify("a > 1 AND a != 3")
    assert sorted(s.cnf.predicate_keys()) == ["a != 3", "a > 1"]


def test_independent_columns_untouched():
    s = _simplify("a > 3 AND b < 2 AND a > 5")
    assert sorted(s.cnf.predicate_keys()) == ["a > 5", "b < 2"]


def test_or_clauses_pass_through():
    s = _simplify("(a > 3 OR b < 2) AND a > 5 AND a > 1")
    keys = s.cnf.predicate_keys()
    assert "a > 5" in keys and "a > 1" not in keys
    assert any(len(c.atoms) == 2 for c in s.cnf.clauses)


def test_contains_pass_through():
    s = _simplify("s CONTAINS 'x' AND s CONTAINS 'x' AND a > 2")
    keys = s.cnf.predicate_keys()
    assert keys.count("s CONTAINS 'x'") == 1  # deduped by clause dedupe
    assert "a > 2" in keys


def test_duplicate_atoms_deduped():
    assert _simplify("a > 3 AND a > 3").cnf.predicate_keys() == ["a > 3"]


def test_string_equality_contradiction():
    from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm
    from repro.sql.ast import BinaryOperator

    cnf = ConjunctiveForm(
        [
            Clause((AtomicPredicate("p", BinaryOperator.EQ, "x"),)),
            Clause((AtomicPredicate("p", BinaryOperator.EQ, "y"),)),
        ]
    )
    # string equalities aren't numeric-comparable: pass through untouched
    s = simplify_cnf(cnf)
    assert not s.contradiction
    assert len(s.cnf.clauses) == 2


def test_contradiction_through_full_plan(small_cluster):
    r = small_cluster.query("SELECT COUNT(*) FROM T WHERE c1 > 5 AND c1 < 3")
    assert r.rows() == [(0,)]
    text = small_cluster.explain("SELECT COUNT(*) FROM T WHERE c1 > 5 AND c1 < 3")
    assert "0 tasks" in text


def test_domination_improves_index_reuse(fresh_cluster):
    # Two differently-written drill-downs normalize to one cache key.
    fresh_cluster.query("SELECT COUNT(*) FROM T WHERE c2 > 5")
    r = fresh_cluster.query("SELECT COUNT(*) FROM T WHERE c2 > 3 AND c2 > 5")
    assert r.stats["index_full_covers"] > 0  # `c2 > 3` was dropped, `c2 > 5` hit


_SPECIAL_FLOATS = [2.5, -0.0, 0.0, 2.0, float("inf"), -float("inf")]


def _frames():
    """An integer frame, and a float one whose rows add NaN, ±inf, −0.0
    and values between the integers."""
    rng = np.random.default_rng(0)
    ints = {c: rng.integers(-6, 7, 200) for c in "ab"}
    floats = {}
    for c, col in ints.items():
        col = col.astype(np.float64)
        col[::7] = np.nan
        col[1::11] = rng.choice(_SPECIAL_FLOATS + [-2.5], size=len(col[1::11]))
        floats[c] = col
    return Frame.from_columns(ints), Frame.from_columns(floats)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from([">", ">=", "<", "<=", "=", "!="]),
            st.one_of(st.integers(-4, 4), st.sampled_from(_SPECIAL_FLOATS)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_property_simplification_preserves_semantics(triples):
    conjuncts = [
        parse_expression(f"{c} {op} {v}")
        if isinstance(v, int)
        else BinaryOp(_OPS[op], Column(c), Literal(v))
        for c, op, v in triples
    ]
    expr = conjuncts[0]
    for conjunct in conjuncts[1:]:
        expr = BinaryOp(BinaryOperator.AND, expr, conjunct)
    s = simplify_cnf(to_cnf(expr))
    rebuilt_expr = None if s.contradiction else s.cnf.to_expr()
    for frame in _frames():
        original = evaluate(expr, frame).astype(bool)
        if s.contradiction:
            assert not original.any()
            continue
        rebuilt = (
            np.ones(200, dtype=bool)
            if rebuilt_expr is None
            else evaluate(rebuilt_expr, frame).astype(bool)
        )
        assert (original == rebuilt).all()
