"""Kernel equivalence: the event loop fires what the reference kernel fires.

The reference below is the discrete-event kernel as it was before its hot
path was inlined (one call per push, ``step`` per event, properties for
``now`` and ``triggered``), copied verbatim less the ``all_of`` / ``any_of``
combinators that were deleted with it.  Hypothesis draws small process
programs (zero-delay and equal-time timeouts, callbacks on resolved events,
failures thrown into waiters, ``interrupt``, ``abandon``, misuse) and a way
to run them (``run``, ``run(until=)``, ``run_until_complete``, ``step``).
Both kernels must fire the same callbacks at the same times in the same
order, keep the same ``(time, seq, fn)`` entries queued (on the heap and
the due-now lane together), and raise the same errors.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultInjectedError, FeisuError
from repro.sim import events as kernel

# --------------------------------------------------------------------------
# The reference kernel.


class SimulationError(FeisuError):
    """Raised for kernel misuse (waiting on a consumed event, negative
    delays, running a stopped simulator...)."""


class Event:
    """A one-shot occurrence with an optional value.

    An event starts *pending*; exactly one call to :meth:`succeed` or
    :meth:`fail` resolves it, at which point all registered callbacks are
    scheduled on the simulator's queue at the current simulation time.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exc", "_resolved", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: List[Callable[[Event], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._resolved = False

    @property
    def triggered(self) -> bool:
        return self._resolved

    @property
    def ok(self) -> bool:
        return self._resolved and self._exc is None

    @property
    def value(self) -> Any:
        if not self._resolved:
            raise SimulationError("event value read before it triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._resolved:
            # Fire immediately (still via the queue, preserving ordering).
            self.sim.schedule(0.0, fn, self)
        else:
            self._callbacks.append(fn)

    def abandon(self) -> None:
        """Drop every waiter of this event.

        For a pending timer whose waiters have nothing left to do: its
        slot on the queue keeps its time, so the clock still advances
        there, but it wakes nobody and holds nothing alive.
        """
        self._callbacks = []

    def succeed(self, value: Any = None) -> "Event":
        self._resolve(value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        self._resolve(None, exc)
        return self

    def _resolve(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._resolved:
            raise SimulationError(f"event {self.name!r} resolved twice")
        self._resolved = True
        self._value = value
        self._exc = exc
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.schedule(0.0, fn, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else ("failed" if self._resolved else "pending")
        return f"<Event {self.name!r} {state}>"


class Process(Event):
    """A cooperative task driven by a generator.

    The generator yields :class:`Event` instances; the process suspends
    until each fires.  When the generator returns, the process (itself an
    event) succeeds with the return value; an uncaught exception fails it.
    Other processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        sim.schedule(0.0, self._step, None)

    def _step(self, fired: Optional[Event]) -> None:
        if self._resolved:
            return  # interrupted while waiting; drop the stale wakeup
        try:
            if fired is None:
                target = next(self._gen)
            elif fired.ok:
                target = self._gen.send(fired.value)
            else:
                target = self._gen.throw(fired._exc)  # noqa: SLF001
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # pragma: no cover - defensive
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        target.add_callback(self._step)

    def interrupt(self, reason: str = "interrupted") -> None:
        """Fail the process from outside (used for task cancellation)."""
        if not self._resolved:
            self._gen.close()
            self.fail(SimulationError(reason))


class Simulator:
    """The event loop: virtual clock + timestamped callback queue."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Any] = []
        self._seq = itertools.count()
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), fn, args))

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """An event that fires ``delay`` seconds from now."""
        ev = Event(self, name=name)
        self.schedule(delay, ev.succeed, value)
        return ev

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a cooperative process from a generator."""
        return Process(self, gen, name=name)

    def every(
        self,
        daemon: Any,
        cycle: Callable[[], Generator[Event, Any, Any]],
        name: str,
        cycle_name: str,
    ) -> Process:
        """Run ``cycle()`` as a process once per ``daemon.period_s``, forever.

        The first cycle starts one period from now; each waits for the one
        before it.  The period is read before every wait, so retuning
        ``daemon.period_s`` takes effect at the next one.  A cycle that
        raises :class:`FaultInjectedError` ends there and the next period
        runs a fresh one: a lost transfer never stops the daemon.
        """

        def loop() -> Generator[Event, Any, None]:
            while True:
                yield self.timeout(daemon.period_s)
                try:
                    yield self.process(cycle(), name=cycle_name)
                except FaultInjectedError:
                    continue

        return self.process(loop(), name=name)

    # -- running ------------------------------------------------------

    def step(self) -> bool:
        """Execute the next queued callback; return False if queue empty."""
        if not self._queue:
            return False
        t, _, fn, args = heapq.heappop(self._queue)
        if t < self._now:  # pragma: no cover - heap invariant
            raise SimulationError("time went backwards")
        self._now = t
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time ``until``).

        Returns the simulation time when the run stopped.
        """
        self._running = True
        try:
            while self._queue:
                t = self._queue[0][0]
                if until is not None and t > until:
                    self._now = until
                    break
                self.step()
        finally:
            self._running = False
        if until is not None and self._now < until and not self._queue:
            self._now = until
        return self._now

    def run_until_complete(self, ev: Event, limit: float = float("inf")) -> Any:
        """Run until ``ev`` fires (or ``limit`` is reached) and return its value."""
        while not ev.triggered:
            if not self._queue:
                raise SimulationError(f"deadlock: {ev.name!r} can never fire")
            if self._queue[0][0] > limit:
                raise SimulationError(f"time limit {limit} reached waiting for {ev.name!r}")
            self.step()
        return ev.value


# --------------------------------------------------------------------------
# Programs: each process body is a list of ops over shared events.

N_EVENTS = 3
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5, -0.5])
EVENT = st.integers(0, N_EVENTS - 1)
PROC = st.integers(0, 3)
TIMEOUT = st.tuples(st.just("timeout"), DELAYS)
WAIT = st.tuples(st.just("wait"), EVENT, st.booleans())
COMPLETE = st.tuples(st.just("complete"), PROC, st.sampled_from([float("inf"), 0.5, 1.0, 2.0]))
# Timeouts, waits and run_until_complete are drawn twice as often as the
# rest: they are what makes a program run long enough to interleave.
OPS = st.one_of(
    TIMEOUT,
    TIMEOUT,
    WAIT,
    WAIT,
    st.tuples(st.just("succeed"), EVENT),
    st.tuples(st.just("fail"), EVENT),
    st.tuples(st.just("callback"), EVENT),
    st.tuples(st.just("abandon"), EVENT),
    st.tuples(st.just("schedule"), DELAYS, EVENT),
    st.tuples(st.just("join"), PROC, st.booleans()),
    st.tuples(st.just("interrupt"), PROC),
    st.tuples(st.just("spawn"), DELAYS),
    st.sampled_from([("bad_yield",), ("raise",)]),
)
RUNS = st.one_of(
    st.just(("run",)),
    st.just(("step",)),
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    COMPLETE,
    COMPLETE,
    st.tuples(st.just("complete_event"), EVENT, st.sampled_from([float("inf"), 1.0])),
)
PROGRAMS = st.tuples(st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=4), RUNS)


def _outcome(fn: Callable[[], Any]) -> tuple:
    """What a call returned, or the type and text of what it raised."""
    try:
        return ("ok", repr(fn()))
    except FeisuError as exc:  # both kernels' SimulationError
        return ("raised", type(exc).__name__, str(exc))
    except (ValueError, RuntimeError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def _state(ev) -> tuple:
    if not ev.triggered:
        return ("pending",)
    return ("ok", repr(ev._value)) if ev.ok else ("failed", repr(ev._exc))  # noqa: SLF001


def execute(simulator_cls, program) -> list:
    """Run ``program`` on a fresh ``simulator_cls``; everything it observed."""
    bodies, run = program
    sim = simulator_cls()
    trace: list = []

    def note(*what) -> None:
        # The kernel keeps its due-now entries in a lane beside the heap;
        # the reference has the heap alone.
        entries = [*sim._queue, *getattr(sim, "_lane", ())]  # noqa: SLF001
        queue = sorted((t, seq, fn.__name__) for t, seq, fn, _ in entries)
        trace.append((sim.now, *what, tuple(queue)))

    shared = [sim.event(name=f"e{i}") for i in range(N_EVENTS)]
    procs: list = []

    def on_fire(i):
        return lambda ev: note("callback", i, _state(ev))

    def body(pid: int, ops) -> Generator:
        for op in ops:
            kind = op[0]
            if kind == "timeout":
                try:
                    timer = sim.timeout(op[1], value=f"v{pid}")
                except FeisuError as exc:
                    note("refused", pid, str(exc))
                    continue
                note("woke", pid, (yield timer))
            elif kind == "wait":
                try:
                    note("resumed", pid, (yield shared[op[1]]))
                except ValueError as exc:
                    if not op[2]:
                        raise
                    note("caught", pid, str(exc))
            elif kind == "succeed":
                note("succeed", pid, _outcome(lambda: shared[op[1]].succeed(f"s{pid}")))
            elif kind == "fail":
                note("fail", pid, _outcome(lambda: shared[op[1]].fail(ValueError(f"f{pid}"))))
            elif kind == "callback":
                shared[op[1]].add_callback(on_fire(op[1]))
            elif kind == "abandon":
                shared[op[1]].abandon()
            elif kind == "schedule":
                note("schedule", pid, _outcome(
                    lambda: sim.schedule(op[1], note, "scheduled", pid, op[2])))
            elif kind == "join":
                target = procs[op[1] % len(procs)]
                try:
                    note("joined", pid, (yield target))
                except (ValueError, RuntimeError, FeisuError) as exc:
                    if not op[2]:
                        raise
                    note("caught", pid, type(exc).__name__, str(exc))
            elif kind == "interrupt":
                note("interrupt", pid, _outcome(lambda: procs[op[1] % len(procs)].interrupt("stop")))
            elif kind == "spawn":
                rest = [o for o in ops if o[0] != "spawn"]
                note("spawn", pid, _outcome(lambda: sim.schedule(op[1], start, rest)))
            elif kind == "bad_yield":
                yield 42
            elif kind == "raise":
                raise RuntimeError(f"r{pid}")
        return f"done{pid}"

    def start(ops) -> None:
        procs.append(sim.process(body(len(procs), ops), name=f"p{len(procs)}"))

    for ops in bodies:
        start(ops)

    kind = run[0]
    if kind == "run":
        note("run", _outcome(sim.run))
    elif kind == "step":
        note("steps", _outcome(lambda: sum(iter(sim.step, False))))
    elif kind == "until":
        note("until", _outcome(lambda: sim.run(until=run[1])))
        note("rest", _outcome(sim.run))
    elif kind == "complete":
        target = procs[run[1] % len(procs)]
        note("complete", _outcome(lambda: sim.run_until_complete(target, limit=run[2])))
    else:
        target = shared[run[1]]
        note("complete", _outcome(lambda: sim.run_until_complete(target, limit=run[2])))
    note("final", tuple(_state(p) for p in procs), tuple(_state(e) for e in shared))
    return trace


@settings(deadline=None, max_examples=1000)
@given(PROGRAMS)
def test_kernel_fires_what_the_reference_fires(program):
    assert execute(kernel.Simulator, program) == execute(Simulator, program)
