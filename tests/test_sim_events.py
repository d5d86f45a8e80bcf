"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.events import Event, Process, SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
    sim.schedule(1.0, lambda: seen.append(("a", sim.now)))
    sim.schedule(3.0, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(1.0, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def _assert_delay_refused(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(delay, lambda: None)
    with pytest.raises(SimulationError, match="negative delay"):
        sim.timeout(delay)
    with pytest.raises(SimulationError, match="negative delay"):
        Event(sim, "timer", delay)
    assert sim._queue == [] and sim.now == 0.0 and sim._seq == 0  # noqa: SLF001


def test_negative_delay_rejected():
    _assert_delay_refused(-0.1)


def test_nan_delay_rejected():
    """NaN used to pass the ``< 0`` check and leave the clock at NaN."""
    _assert_delay_refused(float("nan"))


def test_run_until_before_now_is_refused_and_changes_nothing():
    """``run(until=t)`` with ``t`` behind the clock used to rewind it, so a
    new timer could land before an event that had already fired."""
    sim = Simulator()
    fired = []

    def sleeper():
        yield sim.timeout(5.0)
        fired.append(sim.now)
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.process(sleeper())
    assert sim.run(until=6.0) == 6.0
    queued = list(sim._queue)  # noqa: SLF001
    for until in (3.0, float("nan")):
        with pytest.raises(SimulationError, match="before now"):
            sim.run(until=until)
        assert sim.now == 6.0 and sim._queue == queued  # noqa: SLF001
    assert sim.run(until=6.0) == 6.0  # until == now is a no-op
    assert sim._queue == queued  # noqa: SLF001
    late = sim.timeout(1.0)
    sim.run_until_complete(late)
    assert sim.now == 7.0 and fired == [5.0]
    sim.run()
    assert fired == [5.0, 10.0]


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_event_value_and_callbacks():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.ok and ev.value == 42


def test_event_double_resolution_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_callback_after_trigger_fires_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["x"]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_timeout_fires_at_right_time():
    sim = Simulator()
    ev = sim.timeout(5.0, value="done")
    assert sim.run_until_complete(ev) == "done"
    assert sim.now == 5.0


def test_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(1.5)
        trace.append(sim.now)
        yield sim.timeout(2.5)
        trace.append(sim.now)
        return "finished"

    p = sim.process(proc())
    assert sim.run_until_complete(p) == "finished"
    assert trace == [0.0, 1.5, 4.0]


def test_process_join():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 7

    def parent():
        value = yield sim.process(child())
        return value * 2

    assert sim.run_until_complete(sim.process(parent())) == 14


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_until_complete(sim.process(parent())) == "caught boom"


def test_process_failure_fails_the_process_event():
    sim = Simulator()

    def bad():
        yield sim.timeout(0.5)
        raise RuntimeError("died")

    p = sim.process(bad())
    sim.run()
    assert p.triggered and not p.ok


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def wrong():
        yield 42

    p = sim.process(wrong())
    sim.run()
    assert p.triggered and not p.ok


def test_process_resumes_on_a_user_subclass_of_event():
    class Signal(Event):
        __slots__ = ()

    sim = Simulator()
    signal = Signal(sim, "signal")
    sim.schedule(1.5, signal.succeed, "go")

    def waiter():
        got = yield signal
        return (got, sim.now)

    assert sim.run_until_complete(sim.process(waiter())) == ("go", 1.5)


def test_process_yielding_a_lookalike_with_triggered_fails():
    class Lookalike:
        triggered = True

    sim = Simulator()

    def wrong():
        yield Lookalike()

    p = sim.process(wrong())
    sim.run()
    assert p.triggered and not p.ok
    with pytest.raises(SimulationError, match="yielded non-event"):
        _ = p.value


def test_an_event_without_waiters_holds_no_list():
    sim = Simulator()
    timer = sim.timeout(1.0)
    ev = sim.event()
    assert timer._callbacks == () and ev._callbacks == ()  # noqa: SLF001
    timer.abandon()
    assert timer._callbacks == ()  # noqa: SLF001
    ev.succeed(1)
    sim.run()
    assert timer._callbacks == () and ev._callbacks == ()  # noqa: SLF001


def test_waiters_share_one_list_and_leave_it_on_resolution():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(i):
        got.append((i, (yield ev)))

    for i in range(2):
        sim.process(waiter(i))
    sim.run()
    ev.add_callback(lambda e: got.append(("cb", e.value)))
    assert len(ev._callbacks) == 3  # noqa: SLF001
    ev.abandon()
    assert ev._callbacks == ()  # noqa: SLF001
    ev.add_callback(lambda e: got.append(("cb", e.value)))
    ev.succeed("v")
    assert ev._callbacks == ()  # noqa: SLF001
    sim.run()
    assert got == [("cb", "v")]


# -- an event arms itself (S85) -----------------------------------------------


def test_an_event_given_a_delay_is_the_timeout_of_that_delay():
    """``Event(sim, name, delay, value)`` queues what ``sim.timeout(delay,
    value)`` queues: the same time, the next ``seq``, its own ``succeed``
    and the value (on the due-now lane for a zero delay, on the heap for
    the others); both pop alike."""
    fired = {}
    for build in ("timeout", "event"):
        sim = Simulator()

        def noop():
            pass

        sim.schedule(0.25, noop)
        events = []
        for delay, value in [(1.5, "a"), (0.0, None), (1.5, 7)]:
            if build == "timeout":
                events.append(sim.timeout(delay, value, name="t"))
            else:
                events.append(Event(sim, "t", delay, value))
        assert list(sim._lane) == [(0.0, 2, events[1].succeed, (None,))]  # noqa: SLF001
        assert sorted(sim._queue) == [  # noqa: SLF001
            (0.25, 0, noop, ()),
            (1.5, 1, events[0].succeed, ("a",)),
            (1.5, 3, events[2].succeed, (7,)),
        ]
        seen = fired[build] = []
        for ev in events:
            ev.add_callback(lambda e, seen=seen, sim=sim: seen.append((sim.now, e.name, e.value)))
        sim.run()
    assert fired["event"] == fired["timeout"] == [(0.0, "t", None), (1.5, "t", "a"), (1.5, "t", 7)]


def test_an_event_without_a_delay_is_not_queued():
    sim = Simulator()
    ev = Event(sim, "plain")
    assert sim._queue == [] and sim._seq == 0 and not ev.triggered  # noqa: SLF001


def test_a_fresh_process_sets_every_event_slot_to_its_default():
    """``Process.__init__`` sets Event's slots itself; this fails if Event
    gains a slot the process does not set, or a default the two disagree on."""
    sim = Simulator()
    plain = Event(sim, "p")

    def body():
        yield sim.timeout(1.0)

    proc = Process(sim, body(), name="p")
    for slot in Event.__slots__:
        assert getattr(proc, slot) == getattr(plain, slot), slot
    assert Process(sim, body()).name == "body"


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    never = sim.event("never")
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(never)


def test_interrupt_fails_pending_process():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    p = sim.process(sleeper())
    p.interrupt("cancelled")
    sim.run()
    assert p.triggered and not p.ok


@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, SystemExit])
def test_interrupt_signal_in_a_process_propagates(exc_type):
    """Ctrl-C inside a process body stops the run; it is not a failed event."""
    sim = Simulator()
    after = []

    def body():
        yield sim.timeout(1.0)
        raise exc_type()

    p = sim.process(body())
    sim.schedule(2.0, after.append, "ran on")
    with pytest.raises(exc_type):
        sim.run_until_complete(p)
    assert not p.triggered
    assert after == [] and sim.now == 1.0



# -- the due-now lane beside the timer heap ----------------------------------

_RUN_LOOPS = {
    "run": lambda sim, ev: sim.run(),
    "run_until": lambda sim, ev: sim.run(until=5.0),
    "run_until_complete": lambda sim, ev: sim.run_until_complete(ev),
    "step": lambda sim, ev: sum(iter(sim.step, False)),
}


def test_due_now_entries_take_the_lane_and_later_ones_the_heap():
    """A process's first step, an event's waiters, a zero-delay timer and a
    zero-delay callback are due now and go to the lane, in ``seq`` order;
    a later timer or callback goes to the heap."""
    sim = Simulator()

    def body():
        yield sim.timeout(0.0)

    proc = sim.process(body())
    ev = sim.event("e")
    ev.add_callback(lambda e: None)
    ev.succeed()
    sim.timeout(0.0)
    sim.schedule(0.0, lambda: None)
    sim.timeout(1.0)
    sim.schedule(0.5, lambda: None)
    assert [(t, seq) for t, seq, _, _ in sim._lane] == [(0.0, i) for i in range(4)]  # noqa: SLF001
    assert sorted((t, seq) for t, seq, _, _ in sim._queue) == [(0.5, 5), (1.0, 4)]  # noqa: SLF001
    sim.run_until_complete(proc)
    assert sim.now == 0.0 and len(sim._queue) == 2 and not sim._lane  # noqa: SLF001


@pytest.mark.parametrize("loop", sorted(_RUN_LOOPS))
def test_a_heap_entry_due_now_runs_before_younger_lane_entries(loop):
    """Two timers at one instant, each waking a process: the second timer
    (on the heap, older ``seq``) fires before the first timer's waiter
    (on the lane, younger ``seq``) resumes."""
    sim = Simulator()
    timers = [sim.timeout(1.0, name=f"t{i}") for i in range(2)]
    seen = []

    def sleeper(i):
        yield timers[i]
        seen.append((i, sim.now, [t.triggered for t in timers]))

    procs = [sim.process(sleeper(i)) for i in range(2)]
    _RUN_LOOPS[loop](sim, procs[1])
    assert seen == [(0, 1.0, [True, True]), (1, 1.0, [True, True])]


@pytest.mark.parametrize("loop", sorted(_RUN_LOOPS))
def test_a_scheduled_succeed_without_a_value_resolves_with_none(loop):
    """``sim.schedule(d, ev.succeed)`` queues ``succeed`` with no argument;
    the run loop resolves it in place with the default ``None``."""
    sim = Simulator()
    ev = sim.event("bare")
    sim.schedule(1.0, ev.succeed)
    woke = []

    def waiter():
        woke.append((yield ev))

    sim.process(waiter())
    _RUN_LOOPS[loop](sim, ev)
    assert ev.triggered and ev.ok and ev.value is None
    if loop != "run_until_complete":  # that run stops once ``ev`` fires
        assert woke == [None]


@pytest.mark.parametrize("loop", sorted(_RUN_LOOPS))
def test_an_override_of_succeed_or_step_is_still_called(loop):
    """The run loop resolves ``Event.succeed`` and resumes
    ``Process._step`` in place; a subclass's override of either is called."""
    calls = []

    class LoudEvent(Event):
        __slots__ = ()

        def succeed(self, value=None):
            calls.append(("succeed", value))
            return super().succeed(value)

    class LoudProcess(Process):
        __slots__ = ()

        def _step(self, fired):
            calls.append(("step", fired.name if fired is not None else None))
            super()._step(fired)

    sim = Simulator()
    ev = LoudEvent(sim, "loud", 1.0, "v")

    def body():
        return (yield ev)

    proc = LoudProcess(sim, body(), name="p")
    _RUN_LOOPS[loop](sim, proc)
    assert proc.value == "v"
    assert calls == [("step", None), ("succeed", "v"), ("step", "loud")]
