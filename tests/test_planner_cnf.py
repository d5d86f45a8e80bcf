"""CNF conversion and canonical predicates — SmartIndex's foundation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.planner.cnf import (
    MAX_CNF_CLAUSES,
    AtomicPredicate,
    Clause,
    ConjunctiveForm,
    admits,
    extract_atom,
    to_cnf,
    to_nnf,
)
from repro.planner.expressions import Frame, evaluate
from repro.sql.ast import BinaryOp, BinaryOperator, NotOp
from repro.sql.parser import parse_expression


def _cnf(text) -> ConjunctiveForm:
    return to_cnf(parse_expression(text))


# -- atoms -------------------------------------------------------------------


def test_extract_atom_simple():
    atom = extract_atom(parse_expression("c2 > 5"))
    assert atom == AtomicPredicate("c2", BinaryOperator.GT, 5)
    assert atom.key == "c2 > 5"


def test_extract_atom_flipped_literal_side():
    atom = extract_atom(parse_expression("5 < c2"))
    assert atom == AtomicPredicate("c2", BinaryOperator.GT, 5)
    # textual variants share one canonical key — the reuse property
    assert atom.key == extract_atom(parse_expression("c2 > 5")).key


def test_extract_atom_negative_literal():
    atom = extract_atom(parse_expression("x >= -3"))
    assert atom == AtomicPredicate("x", BinaryOperator.GE, -3)


def test_extract_atom_not_folds_comparison():
    atom = extract_atom(parse_expression("NOT (c2 <= 5)"))
    assert atom == AtomicPredicate("c2", BinaryOperator.GT, 5)


def test_extract_atom_rejects_non_atomic():
    assert extract_atom(parse_expression("a + 1 > 5")) is None
    assert extract_atom(parse_expression("a > b")) is None
    assert extract_atom(parse_expression("a > 1 AND b > 2")) is None


def test_contains_atom_and_negation_flag():
    atom = extract_atom(parse_expression("url CONTAINS 'x'"))
    assert atom.op is BinaryOperator.CONTAINS and not atom.negated
    neg = extract_atom(parse_expression("NOT (url CONTAINS 'x')"))
    assert neg.negated and neg.base == atom


def test_complement_pairs():
    gt = AtomicPredicate("c", BinaryOperator.GT, 5)
    assert gt.complement() == AtomicPredicate("c", BinaryOperator.LE, 5)
    assert gt.complement().complement() == gt
    eq = AtomicPredicate("c", BinaryOperator.EQ, 5)
    assert eq.complement().op is BinaryOperator.NE
    ct = AtomicPredicate("s", BinaryOperator.CONTAINS, "x")
    assert ct.complement().negated and ct.complement().complement() == ct


def test_negated_flag_only_for_contains():
    with pytest.raises(PlanError):
        AtomicPredicate("c", BinaryOperator.GT, 5, negated=True)


def test_atom_evaluate_matches_numpy():
    values = np.array([1, 5, 6, 10])
    assert (
        AtomicPredicate("c", BinaryOperator.GT, 5).evaluate(values) == (values > 5)
    ).all()
    assert (
        AtomicPredicate("c", BinaryOperator.NE, 5).evaluate(values) == (values != 5)
    ).all()


def test_atom_evaluate_contains():
    s = np.empty(3, dtype=object)
    s[:] = ["abc", "bcd", "xyz"]
    atom = AtomicPredicate("s", BinaryOperator.CONTAINS, "bc")
    assert list(atom.evaluate(s)) == [True, True, False]
    assert list(atom.complement().evaluate(s)) == [False, False, True]


# -- CNF structure -------------------------------------------------------------


def test_cnf_of_conjunction_two_clauses():
    cnf = _cnf("(a > 1) AND (b < 2)")
    assert len(cnf.clauses) == 2
    assert all(len(c.atoms) == 1 for c in cnf.clauses)
    assert cnf.predicate_keys() == ["a > 1", "b < 2"]


def test_cnf_of_disjunction_single_clause():
    cnf = _cnf("a > 1 OR b < 2")
    assert len(cnf.clauses) == 1
    assert len(cnf.clauses[0].atoms) == 2
    assert cnf.clauses[0].is_indexable


def test_cnf_distribution():
    cnf = _cnf("a = 1 OR (b = 2 AND c = 3)")
    # (a=1 OR b=2) AND (a=1 OR c=3)
    assert len(cnf.clauses) == 2
    assert all(len(c.atoms) == 2 for c in cnf.clauses)


def test_cnf_de_morgan():
    cnf = _cnf("NOT (a > 1 OR b > 2)")
    assert len(cnf.clauses) == 2
    keys = set(cnf.predicate_keys())
    assert keys == {"a <= 1", "b <= 2"}


def test_cnf_paper_q10_q11_same_keys():
    # Fig 7: Q10 `c2 > 0 AND c2 <= 5` vs Q11 `c2 > 0 AND NOT (c2 > 5)`
    q10 = set(_cnf("(c2 > 0) AND (c2 <= 5)").predicate_keys())
    q11 = set(_cnf("(c2 > 0) AND NOT (c2 > 5)").predicate_keys())
    assert q10 == q11


def test_cnf_residual_for_non_atomic():
    cnf = _cnf("a + 1 > 5 AND b = 2")
    indexable = cnf.indexable_clauses
    assert len(indexable) == 1
    assert indexable[0].atoms[0].key == "b = 2"
    residual = [c for c in cnf.clauses if not c.is_indexable]
    assert len(residual) == 1


def test_cnf_none_is_empty():
    assert to_cnf(None).clauses == []


def test_cnf_dedupes_identical_clauses():
    cnf = _cnf("a > 1 AND a > 1")
    assert len(cnf.clauses) == 1


def test_clause_columns():
    cnf = _cnf("a > 1 OR b < 2")
    assert cnf.clauses[0].columns == ("a", "b")


def test_cnf_to_expr_round_trip_semantics():
    frame = Frame.from_columns(
        {"a": np.array([0, 1, 2, 3]), "b": np.array([3, 2, 1, 0])}
    )
    text = "(a > 1 AND b < 2) OR (a = 0 AND NOT (b <= 2))"
    original = evaluate(parse_expression(text), frame)
    rebuilt = evaluate(to_cnf(parse_expression(text)).to_expr(), frame)
    assert (original == rebuilt).all()


def test_cnf_to_expr_rebuilds_each_clause_once():
    cnf = _cnf("a > 1 AND (b < 2 OR c = 3)")
    first, second = (c.to_expr() for c in cnf.clauses)
    assert cnf.to_expr() == BinaryOp(BinaryOperator.AND, first, second)
    assert _cnf("a > 1").to_expr() == first
    assert ConjunctiveForm([]).to_expr() is None


@pytest.mark.parametrize(
    "bounds, admitted",
    [
        ((5, False, None, False), [6, 7]),
        ((5, True, None, False), [5, 6, 7]),
        ((None, False, 5, False), [3, 4]),
        ((None, False, 5, True), [3, 4, 5]),
        ((4, False, 6, False), [5]),
        ((4, True, 6, True), [4, 5, 6]),
    ],
)
def test_admits_keeps_each_bound_open_or_closed(bounds, admitted):
    assert [v for v in range(3, 8) if admits(bounds, v)] == admitted


def test_a_clause_is_indexable_only_with_atoms_and_no_residual():
    atom = AtomicPredicate("a", BinaryOperator.GT, 1)
    residual = parse_expression("a > b")
    assert Clause((atom,)).is_indexable
    assert not Clause((atom,), (residual,)).is_indexable
    assert not Clause((), (residual,)).is_indexable
    assert not Clause(()).is_indexable


def test_nnf_folds_a_negated_atom_and_keeps_the_not_of_an_opaque_leaf():
    assert to_nnf(parse_expression("NOT (c2 <= 5)")) == parse_expression("c2 > 5")
    opaque = parse_expression("a > b")
    assert to_nnf(NotOp(opaque)) == NotOp(opaque)


def _ors_of_ands(*widths):
    return " OR ".join(
        "(" + " AND ".join(f"x{i}_{j} > {j}" for j in range(width)) + ")"
        for i, width in enumerate(widths)
    )


def test_distribution_keeps_up_to_the_clause_cap_and_degrades_past_it():
    assert MAX_CNF_CLAUSES == 64
    at_cap = _cnf(_ors_of_ands(8, 8))  # 8 · 8 = 64 clauses
    assert len(at_cap.clauses) == 64 and all(c.is_indexable for c in at_cap.clauses)
    past_cap = _cnf(_ors_of_ands(5, 13))  # 65
    assert len(past_cap.clauses) == 1 and past_cap.clauses[0].residuals


# -- property: CNF preserves semantics -------------------------------------------


@st.composite
def bool_exprs(draw, depth=0):
    """Random boolean expressions over int columns a, b."""
    if depth > 3 or draw(st.booleans()):
        col = draw(st.sampled_from(["a", "b"]))
        op = draw(st.sampled_from([">", ">=", "<", "<=", "=", "!="]))
        val = draw(st.integers(min_value=-3, max_value=3))
        return f"({col} {op} {val})"
    kind = draw(st.sampled_from(["AND", "OR", "NOT"]))
    if kind == "NOT":
        return f"(NOT {draw(bool_exprs(depth + 1))})"
    return f"({draw(bool_exprs(depth + 1))} {kind} {draw(bool_exprs(depth + 1))})"


@settings(max_examples=120, deadline=None)
@given(bool_exprs())
def test_property_cnf_equivalent_to_original(text):
    rng = np.random.default_rng(0)
    frame = Frame.from_columns(
        {
            "a": rng.integers(-4, 5, 64),
            "b": rng.integers(-4, 5, 64),
        }
    )
    expr = parse_expression(text)
    original = evaluate(expr, frame).astype(bool)
    cnf = to_cnf(expr)
    rebuilt_expr = cnf.to_expr()
    rebuilt = (
        np.ones(64, dtype=bool) if rebuilt_expr is None else evaluate(rebuilt_expr, frame).astype(bool)
    )
    assert (original == rebuilt).all()


@settings(max_examples=120, deadline=None)
@given(bool_exprs())
def test_property_nnf_equivalent_to_original(text):
    rng = np.random.default_rng(1)
    frame = Frame.from_columns(
        {"a": rng.integers(-4, 5, 64), "b": rng.integers(-4, 5, 64)}
    )
    expr = parse_expression(text)
    assert (
        evaluate(expr, frame).astype(bool) == evaluate(to_nnf(expr), frame).astype(bool)
    ).all()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["a", "b"]),
    st.sampled_from([">", ">=", "<", "<=", "=", "!="]),
    st.integers(min_value=-3, max_value=3),
)
def test_property_complement_is_bitwise_not(col, op, val):
    rng = np.random.default_rng(2)
    values = rng.integers(-4, 5, 100)
    atom = extract_atom(parse_expression(f"{col} {op} {val}"))
    assert (atom.complement().evaluate(values) == ~atom.evaluate(values)).all()
