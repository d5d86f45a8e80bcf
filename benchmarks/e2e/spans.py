"""Spans recorded from outside the program, around calls into each layer.

The program has no wall-clock spans of its own yet (ROADMAP 5a), so the
traced pass wraps public callables: class attributes are swapped on the
class; module functions are rebound in every ``repro`` module that
imported them.  A span is (id, parent, name, start, end, op); the parent
is the innermost open wrapper, which is well defined because the harness
is single-threaded.  Self time = duration - time covered by children.

Generator methods (``LeafServer.run_task``) run in slices, one per
resumption by the event loop; each slice is a span of the same name and
only the first counts as a call.

Totals are kept for every span; full spans only for the first
``KEEP_OPS`` harness operations, which bounds memory and the trace file.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

from ticks import Meter

KEEP_OPS = 50

#: span name -> (module, class or None, attribute)
CLASS_TARGETS = {
    "columnar.from_bytes": ("repro.columnar.block", "Block", "from_bytes"),
    "columnar.from_arrays": ("repro.columnar.block", "Block", "from_arrays"),
    "columnar.to_bytes": ("repro.columnar.block", "Block", "to_bytes"),
    "columnar.decode": ("repro.columnar.block", "ColumnChunk", "decode"),
    "sim.step": ("repro.sim.events", "Simulator", "step"),
    "sim.run_until_complete": ("repro.sim.events", "Simulator", "run_until_complete"),
    "sim.transfer": ("repro.sim.netmodel", "NetworkTopology", "transfer"),
    "node.run_task": ("repro.cluster.node", "LeafServer", "run_task"),
    "node.charge_io": ("repro.cluster.node", "LeafServer", "_charge_io"),
    "master.submit": ("repro.cluster.master", "Master", "submit"),
    "scheduler.place": ("repro.cluster.scheduler", "JobScheduler", "place"),
    "index.cover": ("repro.index.smartindex", "SmartIndexManager", "cover"),
    "ledger.record_submitted": ("repro.cluster.ledger", "JobLedger", "record_submitted"),
    "ledger.record_finished": ("repro.cluster.ledger", "JobLedger", "record_finished"),
    "ledger.checkpoint": ("repro.cluster.failover", "PrimaryBackup", "sync_shadow"),
    "gateway.submit": ("repro.gateway.gateway", "SQLGateway", "_submit"),
    "gateway.admission": ("repro.gateway.admission", "AdmissionController", "next"),
    "client.preflight": ("repro.client.client", "FeisuClient", "_guarded_preflight"),
    "client.history": ("repro.client.history", "QueryHistory", "record"),
    "storage.read": ("repro.storage.base", "StorageSystem", "read"),
    "storage.write": ("repro.storage.base", "StorageSystem", "write"),
    "ingest.ingest": ("repro.workload.loggen", "LogIngestor", "ingest"),
}
FUNCTION_TARGETS = {
    "sql.parse": ("repro.sql.parser", "parse"),
    "sql.tokenize": ("repro.sql.lexer", "tokenize"),
    "sql.analyze": ("repro.sql.analyzer", "analyze"),
    "planner.build_plan": ("repro.planner.physical", "build_plan"),
    "engine.scan_task": ("repro.engine.executor", "execute_scan_task"),
    "engine.hash_join": ("repro.engine.operators", "hash_join"),
    "engine.partial_aggregate": ("repro.engine.aggregates", "partial_aggregate"),
    "engine.serialize": ("repro.engine.serialize", "serialize_result"),
    "engine.deserialize": ("repro.engine.serialize", "deserialize_result"),
    "engine.finalize": ("repro.engine.executor", "finalize"),
    "ingest.flatten": ("repro.columnar.json_flatten", "flatten_records"),
}


class Recorder:
    """In-memory span store: per-name totals plus the first spans in full."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        #: name -> [calls, self_s, total_s]
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.op = -1
        self._next_id = 0
        #: Counts taken at the boundary where the work happens.
        self.decoded_bytes = 0
        self.rows_scanned = 0
        #: Block ids deserialised in the current pass / distinct ids summed
        #: over finished passes (a later pass re-reads the same blocks).
        self.blocks_seen: set = set()
        self.distinct_blocks = 0
        self._undo: List[Callable[[], None]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, self._next_id, perf_counter(), 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, calls: int = 1) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name, span_id, start, child_s = frame
        dur = end - start
        parent = -1
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][1]
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += calls
        tot[1] += dur - child_s
        tot[2] += dur
        if self.op < KEEP_OPS:
            self.spans.append((span_id, parent, name, start, end, self.op))

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                calls, value, exc = 1, None, None
                while True:
                    frame = enter(name)
                    try:
                        item = gen.throw(exc) if exc is not None else gen.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(frame, calls)
                    calls, exc = 0, None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # forwarded into the wrapped generator
                        exc = thrown

            gen_wrapper.__name__ = fn.__name__
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
            finally:
                leave(frame)

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counts taken where the work happens --------------------------------

    def _after(self, name: str) -> Optional[Callable]:
        if name == "columnar.decode":
            def after(array):
                self.decoded_bytes += array.nbytes
        elif name == "columnar.from_bytes":
            def after(block):
                self.blocks_seen.add(block.block_id)
        elif name == "engine.scan_task":
            def after(result):
                self.rows_scanned += result.report.rows_in_block
        else:
            return None
        return after

    # -- installing and removing the wrappers -------------------------------

    def install(self) -> None:
        for name, (modname, clsname, attr) in CLASS_TARGETS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, self._after(name)))
            else:
                wrapped = self._wrap(name, raw, self._after(name))
            setattr(cls, attr, wrapped)
            self._undo.append(lambda cls=cls, attr=attr, raw=raw: setattr(cls, attr, raw))
        for name, (modname, attr) in FUNCTION_TARGETS.items():
            original = getattr(importlib.import_module(modname), attr)
            wrapped = self._wrap(name, original, self._after(name))
            # ``from x import f`` copies the binding: rebind every copy.
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append(
                            lambda mod=mod, key=key, original=original: setattr(mod, key, original)
                        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def end_pass(self) -> None:
        self.distinct_blocks += len(self.blocks_seen)
        self.blocks_seen.clear()

    # -- reading the result -------------------------------------------------

    def calls(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["keep_ops"] = KEEP_OPS
        doc["totals"] = {
            n: {"calls": int(c), "self_s": s, "total_s": t}
            for n, (c, s, t) in sorted(self.totals.items())
        }
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "op"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def installed_wrappers() -> List[str]:
    """Names of targets that currently resolve to a wrapper (for tests)."""
    found = []
    for name, (modname, clsname, attr) in CLASS_TARGETS.items():
        raw = getattr(importlib.import_module(modname), clsname).__dict__[attr]
        fn = getattr(raw, "__func__", raw)
        if getattr(fn, "__module__", "") == __name__:
            found.append(name)
    for name, (modname, attr) in FUNCTION_TARGETS.items():
        if getattr(getattr(importlib.import_module(modname), attr), "__module__", "") == __name__:
            found.append(name)
    return found


class TracedMeter(Meter):
    """One traced pass's meter: every operation is the root of a span tree."""

    def __init__(self, k: int, recorder: Recorder):
        super().__init__(k)
        self.recorder = recorder
        recorder.end_pass()

    def timed(self, fn, *args):
        rec = self.recorder
        rec.op += 1
        return super().timed(rec._wrap("harness.op", fn), *args)  # noqa: SLF001
