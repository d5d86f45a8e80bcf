"""Discrete-event simulation kernel.

Feisu's evaluation ran on a 4,000-node production cluster; this
reproduction replaces that testbed with a deterministic discrete-event
simulator.  The kernel here is intentionally small and dependency-free:

* :class:`Simulator` — the event loop: a priority queue of timestamped
  callbacks plus a virtual clock.
* :class:`Event` — a one-shot future that callbacks or processes can wait
  on.
* :class:`Process` — a generator-based cooperative task.  A process body
  ``yield``\\ s :class:`Event` objects (most commonly ``sim.timeout(dt)``)
  and is resumed when they fire.

Determinism: ties in the event queue are broken by insertion order, so a
run is a pure function of the seed used by whatever stochastic workload
drives it.  No wall-clock time or threads are involved anywhere.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import FaultInjectedError, FeisuError


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

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires when every input event has fired ok.

        Its value is the list of input values in input order.  Fails as
        soon as any input fails.
        """
        events = list(events)
        result = Event(self, name="all_of")
        if not events:
            result.succeed([])
            return result
        remaining = [len(events)]

        def on_fire(_: Event) -> None:
            if result.triggered:
                return
            remaining[0] -= 1
            failed = next((e for e in events if e.triggered and not e.ok), None)
            if failed is not None:
                result.fail(failed._exc)  # noqa: SLF001
            elif remaining[0] == 0:
                result.succeed([e.value for e in events])

        for ev in events:
            ev.add_callback(on_fire)
        return result

    def any_of(self, events: Iterable[Event]) -> Event:
        """An event that fires with the first input event's outcome."""
        events = list(events)
        result = Event(self, name="any_of")
        if not events:
            raise SimulationError("any_of() requires at least one event")

        def on_fire(ev: Event) -> None:
            if result.triggered:
                return
            if ev.ok:
                result.succeed(ev.value)
            else:
                result.fail(ev._exc)  # noqa: SLF001

        for ev in events:
            ev.add_callback(on_fire)
        return result

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
