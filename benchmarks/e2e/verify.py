"""Result verification: order-independent summaries of query answers.

Seeds 7 and 11 are checked against committed files under ``expected/``;
any other seed against a twin cluster built from the same inputs but
shaped as differently as the program allows — one node, one block per
table, no SmartIndex, no gateway — so a stale cache, a bad merge or a
lost block shows as a disagreement.  Row order is not part of the
contract for queries without ORDER BY, so columns are summarised:
numeric sum/min/max, SHA-1 of the sorted strings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, Iterable, Optional

import numpy as np

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
REL_TOL = 1e-9


def summarize(result) -> dict:
    """Row count plus one summary per output column."""
    columns = {}
    for name in result.columns:
        values = result.column(name)
        if values.dtype == object:
            joined = "\x1f".join(sorted(str(v) for v in values))
            columns[name] = {"sha1": hashlib.sha1(joined.encode()).hexdigest()}
        else:
            # An aggregate over no rows is NaN; count those apart so the
            # summary stays comparable (NaN != NaN) and valid JSON.
            as_float = np.asarray(values, dtype=np.float64)
            finite = as_float[~np.isnan(as_float)]
            columns[name] = {
                "nan": int(len(as_float) - len(finite)),
                "sum": math.fsum(finite),
                "min": float(finite.min()) if len(finite) else None,
                "max": float(finite.max()) if len(finite) else None,
            }
    return {"rows": int(result.num_rows), "columns": columns}


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    return a == b


def matches(got: dict, want: dict) -> bool:
    if got["rows"] != want["rows"] or got["columns"].keys() != want["columns"].keys():
        return False
    for name, summary in got["columns"].items():
        other = want["columns"][name]
        if summary.keys() != other.keys():
            return False
        if not all(_same(summary[k], other[k]) for k in summary):
            return False
    return True


def expected_path(workload: str, seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.seed{seed}.json")


def load_expected(workload: str, seed: int) -> Optional[Dict[str, dict]]:
    path = expected_path(workload, seed)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def count_mismatches(outcomes: Iterable, expected: Dict[str, dict]) -> int:
    """Outcomes (with results kept) that disagree with ``expected``.

    Failed queries are not counted here; the harness already counts them.
    """
    bad = 0
    for outcome in outcomes:
        if outcome.failed:
            continue
        want = expected.get(outcome.key)
        if want is None or outcome.result is None or not matches(summarize(outcome.result), want):
            bad += 1
    return bad
