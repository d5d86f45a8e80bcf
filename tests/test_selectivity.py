"""Histograms and selectivity estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.stats import ColumnHistogram
from repro.errors import StorageError
from repro.planner.cnf import to_cnf
from repro.planner.selectivity import (
    DEFAULT_CONTAINS,
    atom_selectivity,
    estimate_selectivity,
)
from repro.sql.parser import parse_expression


def _atom(text):
    from repro.planner.cnf import extract_atom

    return extract_atom(parse_expression(text))


# -- histogram construction -----------------------------------------------------


def test_histogram_uniform_halves():
    arr = np.arange(10_000, dtype=np.int64)
    h = ColumnHistogram.build(arr)
    assert h.total == 10_000
    assert h.fraction_le(4999.5) == pytest.approx(0.5, abs=0.05)
    assert h.fraction_le(-1) == 0.0
    assert h.fraction_le(10_000) == 1.0


def test_histogram_constant_column():
    h = ColumnHistogram.build(np.full(100, 7, dtype=np.int64))
    assert h.selectivity("=", 7) == 1.0
    assert h.selectivity("<", 7) == 0.0
    assert h.selectivity(">=", 7) == 1.0


def test_histogram_empty():
    h = ColumnHistogram.build(np.empty(0, dtype=np.int64))
    assert h.total == 0
    assert h.selectivity(">", 1) == 0.0


def test_histogram_over_nan_and_inf_describes_the_finite_values():
    # A float column holding NaN or ±inf used to fail the table load
    # (np.histogram refuses a non-finite range).
    arr = np.array([np.nan, 1.0, 3.0, np.inf, -np.inf, np.nan], dtype=np.float64)
    h = ColumnHistogram.build(arr)
    assert (h.lo, h.hi, h.total) == (1.0, 3.0, 2)
    assert h.fraction_le(2.0) == pytest.approx(0.5)
    assert ColumnHistogram.build(np.full(3, np.nan)).total == 0


def test_histogram_rejects_strings():
    with pytest.raises(StorageError):
        ColumnHistogram.build(np.array(["a"], dtype=object))


def test_histogram_equality_uses_distinct():
    arr = np.tile(np.arange(10, dtype=np.int64), 100)
    h = ColumnHistogram.build(arr)
    assert h.selectivity("=", 5) == pytest.approx(0.1, abs=0.02)
    assert h.selectivity("!=", 5) == pytest.approx(0.9, abs=0.02)
    assert h.selectivity("=", 99) == 0.0


def test_histogram_round_trip_dict():
    h = ColumnHistogram.build(np.arange(100, dtype=np.int64))
    back = ColumnHistogram.from_dict(h.to_dict())
    assert back == h


def test_histogram_unknown_op():
    h = ColumnHistogram.build(np.arange(10, dtype=np.int64))
    with pytest.raises(StorageError):
        h.selectivity("~", 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=20, max_size=500),
    st.integers(-1100, 1100),
)
def test_property_histogram_close_to_truth(values, threshold):
    arr = np.array(values, dtype=np.int64)
    h = ColumnHistogram.build(arr)
    actual = float((arr <= threshold).mean())
    # The non-strict estimate may miss mass sitting exactly at the
    # threshold's bin: an equi-width histogram can't resolve inside one
    # bin, so the honest error bound is the largest bin's mass (plus the
    # point mass an "=" estimate covers).
    tolerance = h.max_bin_fraction() + h.selectivity("=", threshold) + 0.05
    estimated = h.selectivity("<=", threshold)
    assert estimated == pytest.approx(actual, abs=tolerance)
    # Strict/non-strict ordering always holds.
    assert h.selectivity("<", threshold) <= estimated + 1e-12


# -- selectivity over plans -------------------------------------------------------


def test_atom_selectivity_with_table(small_cluster):
    table = small_cluster.catalog.get("T")
    # c2 is uniform over 0..9
    sel = atom_selectivity(_atom("c2 > 4"), table)
    assert sel == pytest.approx(0.5, abs=0.1)
    sel_eq = atom_selectivity(_atom("c2 = 3"), table)
    assert sel_eq == pytest.approx(0.1, abs=0.05)


def test_atom_selectivity_contains_default(small_cluster):
    table = small_cluster.catalog.get("T")
    assert atom_selectivity(_atom("url CONTAINS 'x'"), table) == DEFAULT_CONTAINS
    assert atom_selectivity(_atom("NOT (url CONTAINS 'x')"), table) == pytest.approx(
        1 - DEFAULT_CONTAINS
    )


def test_cnf_and_combination(small_cluster):
    table = small_cluster.catalog.get("T")
    cnf = to_cnf(parse_expression("c2 > 4 AND c1 < 50"))
    sel = estimate_selectivity(cnf, table)
    assert sel == pytest.approx(0.25, abs=0.08)


def test_cnf_or_combination(small_cluster):
    table = small_cluster.catalog.get("T")
    cnf = to_cnf(parse_expression("c2 > 4 OR c1 < 50"))
    sel = estimate_selectivity(cnf, table)
    assert sel == pytest.approx(0.75, abs=0.08)


def test_estimate_matches_actual_through_plan(small_cluster):
    from repro.planner.physical import build_plan
    from repro.planner.selectivity import estimate_result_rows
    from repro.sql.analyzer import analyze
    from repro.sql.parser import parse

    sql = "SELECT COUNT(*) FROM T WHERE c2 > 4 AND c1 < 50"
    plan = build_plan(analyze(parse(sql), small_cluster.catalog))
    estimated = estimate_result_rows(plan)
    actual = small_cluster.query(sql).rows()[0][0]
    assert estimated == pytest.approx(actual, rel=0.35)


def test_explain_shows_selectivity(small_cluster):
    text = small_cluster.explain("SELECT COUNT(*) FROM T WHERE c2 > 4")
    assert "estimated selectivity:" in text
    assert "modeled rows" in text


def test_no_table_falls_back_to_defaults():
    assert 0.0 < atom_selectivity(_atom("x > 5"), None) < 1.0
    assert atom_selectivity(_atom("x = 5"), None) == pytest.approx(0.05)
