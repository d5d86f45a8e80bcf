"""Per-query trace spans over the simulated clock (S47).

A :class:`Tracer` owns one span tree per job.  Spans carry simulated-time
bounds (``start_s``/``end_s``), free-form JSON-able tags, and children;
the tree mirrors the execution path::

    job
    ├─ fetch_broadcasts
    │  └─ read_table.<name>  (blocks and encoded bytes read)
    ├─ reopt.decision       (adaptive checkpoint, zero duration)
    └─ task.attempt0
       ├─ dispatch          (master → stem hops, CONTROL bytes)
       ├─ broadcast_ship    (WRITE bytes, when the leaf lacks the frames)
       ├─ queue_wait        (leaf slot contention)
       ├─ index_probe       (SmartIndex cover: full/partial/miss)
       ├─ scan              (modeled IO charge)
       ├─ aggregate | project  (modeled CPU charge)
       └─ result_return     (READ bytes upstream, or spill)

Only the places where the simulated clock moves write the tree: the
master (the job, broadcast fetch, re-plan decision and each attempt's
network phases) and ``LeafServer.run_task`` (the leaf's phases).  A
phase that waits on the clock is :meth:`Span.add`-ed when it starts and
:meth:`Span.finish`-ed with its tags when it ends, so a job that
resolves while an attempt is mid-phase shows that phase, open until the
clamp; a point-in-time span is one :meth:`Span.add` with its end.

``index_probe`` tags ``atom_hits`` / ``complement_hits`` /
``atom_misses``, the probed ``clauses``, how many were ``covered`` and
whether that was a ``full_cover``.

Everything is plain Python over values passed in from the caller — the
module never touches the :class:`~repro.sim.events.Simulator`, so adding
or exporting spans cannot perturb event ordering.  Tracing is off unless
``JobOptions.trace=True``; the disabled path allocates nothing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer"]


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / odd numerics to plain JSON types."""
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class Span:
    """One timed region of a query's execution.

    ``end_s`` is ``None`` while the span is open.
    """

    __slots__ = ("name", "start_s", "end_s", "tags", "children")

    def __init__(self, name: str, start_s: float):
        self.name = name
        self.start_s = float(start_s)
        self.end_s: Optional[float] = None
        self.tags: Dict[str, Any] = {}
        self.children: List["Span"] = []

    def add(self, name: str, start_s: float, end_s: Optional[float] = None, **tags: Any) -> "Span":
        """Open a child tagged with ``tags``; closed at ``end_s`` too
        when that is given (a point-in-time or already-ended phase)."""
        span = Span(name, start_s).tag(**tags)
        if end_s is not None:
            span.end_s = float(end_s)
        self.children.append(span)
        return span

    def tag(self, **tags: Any) -> "Span":
        for k, v in tags.items():
            self.tags[k] = _jsonable(v)
        return self

    def finish(self, now: float, **tags: Any) -> None:
        """Tag and close this span.  Closing is idempotent: error paths may
        close a span that a ``finally`` block closes again, and a span a
        clamp closed early still gains the tags of its phase's end."""
        self.tag(**tags)
        if self.end_s is None:
            self.end_s = float(now)

    def finish_tree(self, now: float) -> None:
        """Close this span and any still-open descendants at ``now``."""
        for span in self.walk():
            span.finish(now)

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    def walk(self) -> Iterator["Span"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"name": self.name, "start_s": self.start_s, "end_s": self.end_s}
        if self.tags:
            d["tags"] = dict(self.tags)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.start_s:.6f}..{self.end_s}, tags={self.tags})"


class Tracer:
    """Span-tree collector for one job."""

    __slots__ = ("job_id", "root")

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.root: Optional[Span] = None

    def begin(self, name: str, now: float, **tags: Any) -> Span:
        self.root = Span(name, now).tag(**tags)
        return self.root

    # -- queries -------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        if self.root is not None:
            yield from self.root.walk()

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans() if s.name == name]

    def totals_by_name(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"count": n, "total_s": summed duration}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans():
            agg = out.setdefault(span.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += span.duration_s
        return out

    def tag_sum(self, key: str, span_name: Optional[str] = None) -> float:
        total = 0.0
        for span in self.spans():
            if span_name is not None and span.name != span_name:
                continue
            v = span.tags.get(key)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                total += v
        return total

    def tag_values(self, key: str, span_name: Optional[str] = None) -> Dict[str, int]:
        """Occurrence count of each distinct value of a string tag,
        optionally restricted to spans with ``span_name``."""
        out: Dict[str, int] = {}
        for span in self.spans():
            if span_name is not None and span.name != span_name:
                continue
            v = span.tags.get(key)
            if isinstance(v, str):
                out[v] = out.get(v, 0) + 1
        return out

    def bytes_by_class(self) -> Dict[str, float]:
        """Sum of ``bytes`` tags grouped by the span's ``traffic_class`` tag."""
        out: Dict[str, float] = {}
        for span in self.spans():
            cls = span.tags.get("traffic_class")
            b = span.tags.get("bytes")
            if cls is None or not isinstance(b, (int, float)):
                continue
            out[cls] = out.get(cls, 0.0) + b
        return out

    # -- export --------------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """A JSON-ready dict; ``json.dumps(tracer.export())`` always works."""
        return {
            "job_id": self.job_id,
            "root": self.root.to_dict() if self.root is not None else None,
        }
