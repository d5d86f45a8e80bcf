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

Every queue entry is ``(time, seq, fn, args)`` and every push goes
straight onto the heap: resolving an event, waking a process and arming
a timeout cost no call into :meth:`Simulator.schedule`, and the run loops
pop entries themselves rather than through :meth:`Simulator.step`.  The
clock (``Simulator.now``) and ``Event.triggered`` are plain attributes,
read far more often than anything else in the kernel.

An event arms itself: ``Event(sim, name, delay, value)`` is a timer
that pushes its own ``succeed`` at ``now + delay``, so the hot paths
(a network hop, a device charge, a first-byte wait) build their timer
in one frame; :meth:`Simulator.timeout` is the same call under its
public name.  A :class:`Process` sets Event's slots itself rather than
through ``super().__init__``.

Numbering an entry and waiting on an event cost no call of their own.
``seq`` comes from a plain integer, ``Simulator._seq``, that each push
site reads and advances itself (``Event.succeed`` stores it back once
per batch), numbering from 0.  An event holds no waiter list until it
has a waiter: ``Event._callbacks`` is the shared empty tuple until the
first one makes it ``[fn]``, and ``succeed`` and ``abandon`` put the
tuple back, so an event nobody waits on allocates no list.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional

from repro.errors import FaultInjectedError, FeisuError


class SimulationError(FeisuError):
    """Raised for kernel misuse (waiting on a consumed event, negative
    delays, running a stopped simulator...)."""


class Event:
    """A one-shot occurrence with an optional value.

    An event starts *pending*; exactly one call to :meth:`succeed` or
    :meth:`fail` resolves it, at which point all registered callbacks are
    scheduled on the simulator's queue at the current simulation time.
    ``triggered`` is True from then on (an attribute: read it, never
    assign it).

    Given a ``delay``, the event is a timer: it queues its own
    :meth:`succeed` with ``value`` at ``now + delay``, exactly as
    :meth:`Simulator.timeout` does.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exc", "triggered", "name")

    def __init__(
        self,
        sim: "Simulator",
        name: str = "",
        delay: Optional[float] = None,
        value: Any = None,
    ):
        self.sim = sim
        self.name = name
        #: ``()`` until the first waiter, then a list.
        self._callbacks: Any = ()
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False
        if delay is not None:
            if not delay >= 0:  # refuses NaN as well
                raise SimulationError(f"negative delay {delay}")
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (sim.now + delay, seq, self.succeed, (value,)))

    @property
    def ok(self) -> bool:
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before it triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Fire immediately (still via the queue, preserving ordering).
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (sim.now, seq, fn, (self,)))
        else:
            waiters = self._callbacks
            if waiters:
                waiters.append(fn)
            else:
                self._callbacks = [fn]

    def abandon(self) -> None:
        """Drop every waiter of this event.

        For a pending timer whose waiters have nothing left to do: its
        slot on the queue keeps its time, so the clock still advances
        there, but it wakes nobody and holds nothing alive.
        """
        self._callbacks = ()

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} resolved twice")
        self.triggered = True
        self._value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = ()
            sim = self.sim
            queue, seq, now, args = sim._queue, sim._seq, sim.now, (self,)
            for fn in callbacks:
                heappush(queue, (now, seq, fn, args))
                seq += 1
            sim._seq = seq
        return self

    def fail(self, exc: BaseException) -> "Event":
        # Resolved as by ``succeed``; the callbacks it queued have not run
        # yet, so every one of them sees the failure.
        self.succeed()
        self._exc = exc
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else ("failed" if self.triggered else "pending")
        return f"<Event {self.name!r} {state}>"


class Process(Event):
    """A cooperative task driven by a generator.

    The generator yields :class:`Event` instances; the process suspends
    until each fires.  When the generator returns, the process (itself an
    event) succeeds with the return value; an uncaught exception fails it.
    Other processes may therefore ``yield`` a process to join it.  A
    ``KeyboardInterrupt`` or ``SystemExit`` raised in the body is not a
    failure of the process: it propagates out of the run loop.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = ""):
        # Event's slots, set here rather than through ``super().__init__``
        # (one frame less per process); a test keeps the two in step.
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._callbacks = ()
        self._value = None
        self._exc = None
        self.triggered = False
        self._gen = gen
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._queue, (sim.now, seq, self._step, (None,)))

    def _step(self, fired: Optional[Event]) -> None:
        if self.triggered:
            return  # interrupted while waiting; drop the stale wakeup
        try:
            if fired is None:
                target = next(self._gen)
            elif fired._exc is None:
                target = self._gen.send(fired._value)
            else:
                target = self._gen.throw(fired._exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self.fail(exc)
            return
        cls = target.__class__
        if cls is not Event and cls is not Process and not isinstance(target, Event):
            self.fail(SimulationError(f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target.triggered:
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (sim.now, seq, self._step, (target,)))
        else:
            waiters = target._callbacks
            if waiters:
                waiters.append(self._step)
            else:
                target._callbacks = [self._step]

    def interrupt(self, reason: str = "interrupted") -> None:
        """Fail the process from outside (used for task cancellation)."""
        if not self.triggered:
            self._gen.close()
            self.fail(SimulationError(reason))


class Simulator:
    """The event loop: virtual clock + timestamped callback queue.

    ``now`` is the current simulation time in seconds (an attribute:
    read it, never assign it).
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Any] = []
        #: The next entry's sequence number; see the module docstring.
        self._seq = 0

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # refuses NaN as well
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, fn, args))

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "timeout") -> Event:
        """An event that fires ``delay`` seconds from now."""
        return Event(self, name, delay, value)

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
    #
    # ``run`` and ``run_until_complete`` pop the queue themselves; each
    # iteration is exactly one ``step``.

    def step(self) -> bool:
        """Execute the next queued callback; return False if queue empty."""
        queue = self._queue
        if not queue:
            return False
        t, _, fn, args = heappop(queue)
        if t < self.now:  # pragma: no cover - heap invariant
            raise SimulationError("time went backwards")
        self.now = t
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time ``until``).

        Returns the simulation time when the run stopped.  An ``until``
        earlier than ``now`` (or NaN) raises :class:`SimulationError` and
        leaves the clock and the queue as they were.
        """
        if until is not None and not until >= self.now:
            raise SimulationError(f"run until {until} is before now ({self.now})")
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                break
            t, _, fn, args = heappop(queue)
            if t < self.now:  # pragma: no cover - heap invariant
                raise SimulationError("time went backwards")
            self.now = t
            fn(*args)
        if until is not None and self.now < until and not queue:
            self.now = until
        return self.now

    def run_until_complete(self, ev: Event, limit: float = float("inf")) -> Any:
        """Run until ``ev`` fires (or ``limit`` is reached) and return its value."""
        queue = self._queue
        while not ev.triggered:
            if not queue:
                raise SimulationError(f"deadlock: {ev.name!r} can never fire")
            if queue[0][0] > limit:
                raise SimulationError(f"time limit {limit} reached waiting for {ev.name!r}")
            t, _, fn, args = heappop(queue)
            if t < self.now:  # pragma: no cover - heap invariant
                raise SimulationError("time went backwards")
            self.now = t
            fn(*args)
        return ev.value
