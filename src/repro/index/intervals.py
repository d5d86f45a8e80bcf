"""Per-(block, column) interval registry over cached SmartIndex atoms.

The semantic probe layer (ISSUE 4) needs two questions answered fast,
for every atom probe, without scanning the whole cache:

* *derivation*: which cached atoms sit at **exactly this value** on this
  column?  (``x <= 10`` and ``x < 10`` together derive ``x = 10`` by
  bitmap AND-NOT; ``x < 10`` OR ``x = 10`` derives ``x <= 10``; …)
* *subsumption*: which cached atom is the **tightest superset** of the
  probe?  (a cached ``x < 20`` vector is a sound candidate mask for a
  ``x < 10`` probe — the residual scan then touches only candidate
  rows.)

Both are O(log n) here: per ``(block, column)`` the registry keeps one
sorted value array per range operator (LT/LE/GT/GE) probed with
``bisect``, a value→key dict for equalities, and a needle→key dict for
CONTAINS.  The analyzer refuses to compare a string column with a
number, so the values of one column are mutually orderable.

A probe reads its atom's ``bounds``.  NaN lies inside no bounds, so for
ordered probes a *complement* vector (``invert=True`` — the bit-NOT of a
stored entry) over-approximates by exactly the NaN rows.  Supersets stay
supersets; the residual evaluation restores exactness.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.planner.cnf import AtomicPredicate
from repro.sql.ast import BinaryOperator


class _SortedAtoms:
    """Sorted value array with a parallel predicate-key array.

    Values are unique within one (block, column, op) family — the
    canonical predicate key makes duplicates impossible — so lookups
    need no tie handling.
    """

    __slots__ = ("values", "keys")

    def __init__(self) -> None:
        self.values: List = []
        self.keys: List[str] = []

    def __len__(self) -> int:
        return len(self.values)

    def add(self, value, key: str) -> None:
        i = bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            self.keys[i] = key
            return
        self.values.insert(i, value)
        self.keys.insert(i, key)

    def discard(self, value) -> None:
        i = bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            del self.values[i]
            del self.keys[i]

    def get(self, value) -> Optional[str]:
        i = bisect_left(self.values, value)
        if i < len(self.values) and self.values[i] == value:
            return self.keys[i]
        return None

    def ceil(self, value, strict: bool) -> Optional[Tuple[object, str]]:
        """Smallest entry ``> value`` (strict) or ``>= value``."""
        i = bisect_right(self.values, value) if strict else bisect_left(self.values, value)
        if i < len(self.values):
            return self.values[i], self.keys[i]
        return None

    def floor(self, value, strict: bool) -> Optional[Tuple[object, str]]:
        """Largest entry ``< value`` (strict) or ``<= value``."""
        i = (bisect_left(self.values, value) if strict else bisect_right(self.values, value)) - 1
        if i >= 0:
            return self.values[i], self.keys[i]
        return None


@dataclass(frozen=True)
class Candidate:
    """One cached superset of a probe atom.

    ``invert`` marks complement use: the candidate vector is the bit-NOT
    of the stored entry's vector (sound for candidate masks — the NaN
    over-approximation only widens the superset).
    """

    predicate_key: str
    invert: bool


# Tightest-superset probe tables: the cached sets bounded above and
# below, each row ``(cached op, invert, the set admits its own value)``.
# A probe whose bounds end at ``v`` on that side is a subset of the set
# at ``w`` iff ``w`` lies beyond ``v``, strictly when the probe admits
# ``v`` and the set does not admit ``w``; the tightest such ``w`` is the
# ceil of the probe's high bound (above) or the floor of its low bound
# (below).  An EQ probe walks both tables.
_BOUNDED_ABOVE = (
    (BinaryOperator.LT, False, False),
    (BinaryOperator.LE, False, True),
    (BinaryOperator.GE, True, False),
    (BinaryOperator.GT, True, True),
)
_BOUNDED_BELOW = (
    (BinaryOperator.GT, False, False),
    (BinaryOperator.GE, False, True),
    (BinaryOperator.LE, True, False),
    (BinaryOperator.LT, True, True),
)


class IntervalRegistry:
    """Secondary index over cached atoms, kept in sync by the manager.

    Only *positively stored* atoms are registered (the entry's own
    predicate, never its complement) — ``invert`` in probe results is
    how complements are reached.
    """

    def __init__(self) -> None:
        self._ranges: Dict[Tuple[str, str], Dict[BinaryOperator, _SortedAtoms]] = {}
        self._eq: Dict[Tuple[str, str], Dict[object, str]] = {}
        self._contains: Dict[Tuple[str, str], Dict[str, str]] = {}

    # -- maintenance -------------------------------------------------------

    def add(self, block_id: str, atom: AtomicPredicate) -> None:
        op = atom.op
        if op is BinaryOperator.CONTAINS:
            if atom.negated:
                return  # negated CONTAINS subsumes nothing useful
            self._contains.setdefault((block_id, atom.column), {})[str(atom.value)] = atom.key
            return
        if op is BinaryOperator.NE:
            return  # NE answers come from the EQ complement, never composition
        bucket = (block_id, atom.column)
        if op is BinaryOperator.EQ:
            self._eq.setdefault(bucket, {})[atom.value] = atom.key
            return
        ranges = self._ranges.setdefault(bucket, {})
        arr = ranges.get(op)
        if arr is None:
            arr = ranges[op] = _SortedAtoms()
        arr.add(atom.value, atom.key)

    def discard(self, block_id: str, atom: AtomicPredicate) -> None:
        op = atom.op
        if op is BinaryOperator.CONTAINS:
            needles = self._contains.get((block_id, atom.column))
            if needles and needles.pop(str(atom.value), None) is not None and not needles:
                del self._contains[(block_id, atom.column)]
            return
        if op is BinaryOperator.NE:
            return
        bucket = (block_id, atom.column)
        if op is BinaryOperator.EQ:
            eqs = self._eq.get(bucket)
            if eqs and eqs.pop(atom.value, None) is not None and not eqs:
                del self._eq[bucket]
            return
        ranges = self._ranges.get(bucket)
        if not ranges:
            return
        arr = ranges.get(op)
        if arr is None:
            return
        arr.discard(atom.value)
        if not len(arr):
            del ranges[op]
            if not ranges:
                del self._ranges[bucket]

    # -- probes ------------------------------------------------------------

    def same_value(self, block_id: str, column: str, value) -> Dict[BinaryOperator, str]:
        """Cached atoms pinned at exactly ``value`` on this column.

        Feeds the exact derivation compositions (``EQ = LE & GE``,
        ``LE = LT | EQ``, ``LT = LE &~ EQ``, …); each lookup is one
        bisect or dict hit.
        """
        bucket = (block_id, column)
        out: Dict[BinaryOperator, str] = {}
        eqs = self._eq.get(bucket)
        if eqs is not None:
            key = eqs.get(value)
            if key is not None:
                out[BinaryOperator.EQ] = key
        ranges = self._ranges.get(bucket)
        if ranges:
            for op, arr in ranges.items():
                key = arr.get(value)
                if key is not None:
                    out[op] = key
        return out

    def superset_candidates(self, block_id: str, atom: AtomicPredicate) -> List[Candidate]:
        """Tightest cached supersets of ``atom`` (at most one per table row).

        The caller ANDs the candidate vectors: each is a superset of the
        probe's true-set, so their intersection is the tightest sound
        candidate mask the cache can offer.
        """
        if atom.op is BinaryOperator.CONTAINS:
            if atom.negated:
                return []
            needles = self._contains.get((block_id, atom.column))
            if not needles:
                return []
            probe = str(atom.value)
            # Needle dicts are tiny (distinct CONTAINS literals per
            # column); the substring test is the whole filter.
            return [
                Candidate(key, False)
                for needle, key in needles.items()
                if needle != probe and needle in probe
            ]
        if atom.bounds is None:
            return []
        ranges = self._ranges.get((block_id, atom.column))
        if not ranges:
            return []
        low, low_inclusive, high, high_inclusive = atom.bounds
        out: List[Candidate] = []
        for table, value, inclusive, nearest in (
            (_BOUNDED_ABOVE, high, high_inclusive, _SortedAtoms.ceil),
            (_BOUNDED_BELOW, low, low_inclusive, _SortedAtoms.floor),
        ):
            if value is None:
                continue
            for cached_op, invert, admits_own in table:
                arr = ranges.get(cached_op)
                if arr is None:
                    continue
                strict = inclusive and not admits_own
                hit = nearest(arr, value, strict)
                if hit is None:
                    continue
                _, key = hit
                if not invert and key == atom.key:
                    continue  # the probe itself; exact lookup already failed upstream
                out.append(Candidate(key, invert))
        return out
