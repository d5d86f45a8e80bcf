"""Table-level column statistics: equi-width histograms.

Block chunks already carry min/max for pruning; the *catalog*
additionally keeps one histogram per numeric column so the cost-based
planner (§III-B) can estimate predicate selectivity — how many rows a
filter keeps — which feeds EXPLAIN's row estimates and the master's
result-size expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import StorageError

DEFAULT_BINS = 32


@dataclass(frozen=True)
class ColumnHistogram:
    """Equi-width histogram over one numeric column."""

    lo: float
    hi: float
    counts: Tuple[int, ...]
    total: int
    distinct_estimate: int = 0

    @classmethod
    def build(cls, array: np.ndarray, bins: int = DEFAULT_BINS) -> "ColumnHistogram":
        if array.dtype == object or array.dtype == np.bool_:
            raise StorageError("histograms are built over numeric columns only")
        if array.dtype.kind == "f":
            # NaN matches no comparison, and NaN or ±inf bounds no bin.
            finite = np.isfinite(array)
            if not finite.all():
                array = array[finite]
        n = len(array)
        if n == 0:
            return cls(0.0, 0.0, tuple([0] * bins), 0, 0)
        lo, hi = float(array.min()), float(array.max())
        if lo == hi:
            counts = [0] * bins
            counts[0] = n
            return cls(lo, hi, tuple(counts), n, 1)
        values, lo_, hi_ = array.astype(np.float64), lo, hi
        if math.isinf(hi - lo):  # the same bins over halves, whose span is finite
            values, lo_, hi_ = values / 2, lo / 2, hi / 2
        try:
            counts, _edges = np.histogram(values, bins=bins, range=(lo_, hi_))
        except ValueError:  # fewer than ``bins`` floats lie between lo and hi
            position = ((values - lo_) / (hi_ - lo_) * bins).astype(np.int64)
            counts = np.bincount(np.clip(position, 0, bins - 1), minlength=bins)
        distinct = int(len(np.unique(array[: min(n, 8192)])))
        return cls(lo, hi, tuple(int(c) for c in counts), n, distinct)

    # -- selectivity ------------------------------------------------------

    def _bin_width(self) -> float:
        return (self.hi - self.lo) / len(self.counts) if self.hi > self.lo else 0.0

    def fraction_le(self, value: float) -> float:
        """Estimated fraction of rows with column <= value."""
        if self.total == 0:
            return 0.0
        if value < self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        width = self._bin_width()
        if width == 0.0:
            return 1.0 if value >= self.lo else 0.0
        if math.isinf(width):  # hi - lo overflows: the same position from halves
            position = (value / 2 - self.lo / 2) / ((self.hi / 2 - self.lo / 2) / len(self.counts))
        else:
            position = (value - self.lo) / width
        whole = int(position)
        fraction_in_bin = position - whole
        covered = sum(self.counts[:whole]) + self.counts[min(whole, len(self.counts) - 1)] * fraction_in_bin
        return min(1.0, covered / self.total)

    def selectivity(self, op: str, value: float) -> float:
        """Estimated match fraction for ``column OP value``.

        Strict and non-strict bounds differ by the estimated point mass
        at ``value`` (which matters for discrete columns: on a constant
        column, ``< lo`` is 0 while ``<= lo`` is 1).
        """
        if self.total == 0:
            return 0.0
        if op == "<=":
            return self.fraction_le(value)
        if op == "<":
            return max(0.0, self.fraction_le(value) - self.selectivity("=", value))
        if op == ">":
            return 1.0 - self.fraction_le(value)
        if op == ">=":
            return min(1.0, 1.0 - self.fraction_le(value) + self.selectivity("=", value))
        if op == "=":
            if value < self.lo or value > self.hi:
                return 0.0
            distinct = max(self.distinct_estimate, 1)
            return min(1.0, 1.0 / distinct)
        if op == "!=":
            return 1.0 - self.selectivity("=", value)
        raise StorageError(f"histogram cannot estimate operator {op!r}")

    def max_bin_fraction(self) -> float:
        """Largest single-bin mass — the estimator's intrinsic error bound
        (an equi-width histogram cannot resolve inside one bin)."""
        if self.total == 0:
            return 0.0
        return max(self.counts) / self.total

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "counts": list(self.counts),
            "total": self.total,
            "distinct": self.distinct_estimate,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnHistogram":
        return cls(
            doc["lo"], doc["hi"], tuple(doc["counts"]), doc["total"], doc["distinct"]
        )
