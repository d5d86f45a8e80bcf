"""Discrete-event simulation kernel.

Feisu's evaluation ran on a 4,000-node production cluster; this
reproduction replaces that testbed with a deterministic discrete-event
simulator.  The kernel here is intentionally small and dependency-free:

* :class:`Simulator` — the event loop: a timer heap and a due-now lane
  of timestamped callbacks plus a virtual clock.
* :class:`Event` — a one-shot future that callbacks or processes can wait
  on.
* :class:`Process` — a generator-based cooperative task.  A process body
  ``yield``\\ s :class:`Event` objects (most commonly ``sim.timeout(dt)``)
  and is resumed when they fire.

Determinism: ties in the event queue are broken by insertion order, so a
run is a pure function of the seed used by whatever stochastic workload
drives it.  No wall-clock time or threads are involved anywhere.

Every queue entry is ``(time, seq, fn, args)``, and entries run in
``(time, seq)`` order.  They live in two containers.  An entry due at
``now`` (an event's waiters when it resolves, a callback added to a
resolved event, a new process's first step, a process that yields a
resolved event, a zero-delay timer or callback) is appended to
``Simulator._lane``, a FIFO ``deque``; an entry due later is pushed onto
the heap ``Simulator._queue``.  The lane's entries all carry ``now`` and
rising ``seq`` numbers, so it is sorted, and the clock cannot pass
``now`` while it holds one; the next entry is the heap's head only when
``queue[0] < lane[0]``.  The pop order is therefore exactly that of one
heap holding every entry, and a due-now entry never sifts through a heap
of pending timers.

Pushing an entry costs no call into :meth:`Simulator.schedule`, and
``run`` and ``run_until_complete`` share one loop that pops entries
itself.  That loop resolves a timer (an ``Event.succeed`` entry) and
resumes a process (a ``Process._step`` entry) in place, without calling
the method; an override of either, and every other callback, is called.
:meth:`Simulator.step` is the plain one-entry path.  The clock
(``Simulator.now``) and ``Event.triggered`` are plain attributes, read
far more often than anything else in the kernel.

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

from collections import deque
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Deque, Generator, List, Optional

from repro.errors import FaultInjectedError, FeisuError

#: The lane's pop.  The run loops read it, like ``heappop``, from this
#: module when they start, so a detector can wrap either.
popleft = deque.popleft


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
            if delay:
                heappush(sim._queue, (sim.now + delay, seq, self.succeed, (value,)))
            else:
                sim._lane.append((sim.now, seq, self.succeed, (value,)))

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
            sim._lane.append((sim.now, seq, fn, (self,)))
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
            push, seq, now, args = sim._lane.append, sim._seq, sim.now, (self,)
            for fn in callbacks:
                push((now, seq, fn, args))
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
        sim._lane.append((sim.now, seq, self._step, (None,)))

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
            sim._lane.append((sim.now, seq, self._step, (target,)))
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
        #: Entries due after ``now``: a heap.
        self._queue: List[Any] = []
        #: Entries due at ``now``, in ``seq`` order; see the module docstring.
        self._lane: Deque[Any] = deque()
        #: The next entry's sequence number; see the module docstring.
        self._seq = 0

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # refuses NaN as well
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        if delay:
            heappush(self._queue, (self.now + delay, seq, fn, args))
        else:
            self._lane.append((self.now, seq, fn, args))

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

    def step(self) -> bool:
        """Execute the next queued callback; return False if queue empty."""
        queue, lane = self._queue, self._lane
        if lane and not (queue and queue[0] < lane[0]):
            _, _, fn, args = popleft(lane)
        elif queue:
            t, _, fn, args = heappop(queue)
            if t < self.now:  # pragma: no cover - heap invariant
                raise SimulationError("time went backwards")
            self.now = t
        else:
            return False
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (optionally stopping at time ``until``).

        Returns the simulation time when the run stopped.  An ``until``
        earlier than ``now`` (or NaN) raises :class:`SimulationError` and
        leaves the clock and the queue as they were.
        """
        if until is None:
            self._drain(_NEVER, _INF)
            return self.now
        if not until >= self.now:
            raise SimulationError(f"run until {until} is before now ({self.now})")
        self._drain(_NEVER, until)
        self.now = until
        return until

    def run_until_complete(self, ev: Event, limit: float = float("inf")) -> Any:
        """Run until ``ev`` fires (or ``limit`` is reached) and return its value."""
        self._drain(ev, limit)
        if not ev.triggered:
            if not (self._queue or self._lane):
                raise SimulationError(f"deadlock: {ev.name!r} can never fire")
            raise SimulationError(f"time limit {limit} reached waiting for {ev.name!r}")
        return ev.value

    def _drain(self, ev: Any, limit: float) -> None:
        """Run entries in ``(time, seq)`` order until ``ev`` has triggered,
        nothing is queued or the next entry is due after ``limit``.

        An ``Event.succeed`` entry (a timer) is resolved and a
        ``Process._step`` entry resumed here, as those methods would,
        without the call; any other callback is called.
        """
        queue, lane = self._queue, self._lane
        pop, take, push = heappop, popleft, lane.append
        method, succeed_fn, step_fn = MethodType, _SUCCEED, _STEP
        while not ev.triggered:
            if lane and not (queue and queue[0] < lane[0]):
                if lane[0][0] > limit:
                    return
                t, _, fn, args = take(lane)
            elif queue:
                if queue[0][0] > limit:
                    return
                t, _, fn, args = pop(queue)
                if t < self.now:  # pragma: no cover - heap invariant
                    raise SimulationError("time went backwards")
                self.now = t
            else:
                return
            if fn.__class__ is method:
                func = fn.__func__
                if func is succeed_fn and not args[1:]:
                    event = fn.__self__
                    if event.triggered:
                        raise SimulationError(f"event {event.name!r} resolved twice")
                    event.triggered = True
                    event._value = args[0] if args else None
                    waiters = event._callbacks
                    if waiters:
                        event._callbacks = ()
                        seq, wake = self._seq, (event,)
                        for waiter in waiters:
                            push((t, seq, waiter, wake))
                            seq += 1
                        self._seq = seq
                    continue
                if func is step_fn:
                    proc = fn.__self__
                    if proc.triggered:
                        continue  # interrupted while waiting; drop the stale wakeup
                    fired = args[0]
                    try:
                        if fired is None:
                            target = next(proc._gen)
                        elif fired._exc is None:
                            target = proc._gen.send(fired._value)
                        else:
                            target = proc._gen.throw(fired._exc)
                    except StopIteration as stop:
                        proc.succeed(stop.value)
                        continue
                    except Exception as exc:
                        proc.fail(exc)
                        continue
                    cls = target.__class__
                    if cls is not Event and cls is not Process and not isinstance(target, Event):
                        proc.fail(
                            SimulationError(f"process {proc.name!r} yielded non-event {target!r}")
                        )
                    elif target.triggered:
                        seq = self._seq
                        self._seq = seq + 1
                        push((self.now, seq, fn, (target,)))
                    else:
                        waiters = target._callbacks
                        if waiters:
                            waiters.append(fn)
                        else:
                            target._callbacks = [fn]
                    continue
            fn(*args)


class _Never:
    """What a plain ``run`` waits for: an event that never triggers."""

    triggered = False


_NEVER = _Never()
_INF = float("inf")
_SUCCEED = Event.succeed
_STEP = Process._step
