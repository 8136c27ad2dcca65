"""Kernel hot-path invariants: pooling, typed dispatch, interruption.

The optimized kernel recycles heap entries and Timeout objects so the
steady-state sleep/timeout path allocates nothing.  The determinism
contract is *ordering + integer time* — never allocation identity — so
these tests pin down the places where reuse could leak into semantics:
interrupt during a pooled sleep, combinators over pooled timeouts, and
the reference kernel dispatching the exact same event sequence.
"""

import pytest

from repro.sim import (AllOf, AnyOf, Interrupted, Park, ReferenceSimulator, SimError,
                       Simulator, Timeout)


# ---------------------------------------------------------------- free lists
def test_timeout_free_list_recycles_identity():
    sim = Simulator()
    seen = []

    def proc():
        t1 = sim.timeout(5)
        seen.append(t1)
        yield t1
        # t1 was recycled the moment the wait consumed it: the next
        # timeout from the pool is the same object, re-armed
        t2 = sim.timeout(7)
        seen.append(t2)
        yield t2

    sim.run_process(proc())
    assert seen[0] is seen[1]
    assert sim.now == 12


def test_directly_constructed_timeout_is_never_pooled():
    sim = Simulator()

    def proc():
        t = Timeout(sim, 5)
        yield t
        assert t not in sim._timeout_pool

    sim.run_process(proc())
    assert sim.now == 5


def test_entry_pool_stays_bounded_in_steady_state():
    sim = Simulator()

    def sleeper():
        for _ in range(200):
            yield sim.timeout(3)

    sim.run_process(sleeper())
    assert sim.now == 600
    # 200 sleeps + wakeups cycle through a handful of pooled objects
    assert len(sim._entry_pool) <= 4
    assert len(sim._timeout_pool) <= 2


def test_sleep_is_the_timeout_alias():
    assert Simulator.sleep is Simulator.timeout
    sim = Simulator()

    def proc():
        yield sim.sleep(9)

    sim.run_process(proc())
    assert sim.now == 9


def test_negative_timeout_raises_on_both_pool_paths():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.timeout(-1)  # fresh-construction path
    sim._timeout_pool.append(Timeout(sim, 1))
    with pytest.raises(SimError):
        sim.timeout(-1)  # pool-hit path


# -------------------------------------------------------------- interruption
def test_interrupt_during_pooled_sleep():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1_000)
        except Interrupted as i:
            log.append(("interrupted", sim.now, i.cause))
        yield sim.timeout(5)  # the pool must still be usable afterwards
        log.append(("done", sim.now))

    p = sim.spawn(sleeper(), name="sleeper")

    def poker():
        yield sim.timeout(10)
        p.interrupt("poke")

    sim.spawn(poker(), name="poker")
    sim.run()
    assert log == [("interrupted", 10, "poke"), ("done", 15)]


def test_repeated_interrupts_do_not_grow_the_pools():
    sim = Simulator()
    hits = []

    def sleeper():
        for _ in range(50):
            try:
                yield sim.timeout(1_000)
            except Interrupted:
                hits.append(sim.now)

    p = sim.spawn(sleeper(), name="sleeper")

    def poker():
        for _ in range(50):
            yield sim.timeout(7)
            p.interrupt()

    sim.spawn(poker(), name="poker")
    sim.run()
    assert len(hits) == 50
    # Cancellation is lazy: each canceled far-future entry is recycled
    # into the pool when the heap reaches it, not dropped on the floor.
    n0 = len(sim._entry_pool)
    assert n0 >= 50
    assert all(e[2] is None and e[3] is None for e in sim._entry_pool)
    assert len(sim._timeout_pool) <= 2

    # Steady state: further scheduling reuses the pool instead of growing it.
    def more():
        for _ in range(100):
            yield sim.timeout(2)

    sim.run_process(more())
    assert len(sim._entry_pool) <= n0 + 2


def test_interrupt_while_waiting_on_event():
    sim = Simulator()
    ev = sim.event("ev")
    log = []

    def waiter():
        try:
            yield ev
        except Interrupted:
            log.append(("interrupted", sim.now))

    p = sim.spawn(waiter(), name="waiter")

    def poker():
        yield sim.timeout(4)
        p.interrupt()
        yield sim.timeout(4)
        ev.trigger("late")  # must not resume the dead waiter

    sim.spawn(poker(), name="poker")
    sim.run()
    assert log == [("interrupted", 4)]
    assert ev._waiters == []  # the interrupt unsubscribed the process


# -------------------------------------------------- combinators over the pool
def test_anyof_with_pooled_timeouts():
    sim = Simulator()

    def proc():
        idx, value = yield AnyOf(sim, [sim.timeout(50), sim.timeout(10, "t")])
        assert (idx, value) == (1, "t")
        assert sim.now == 10

    sim.run_process(proc())


def test_allof_with_pooled_timeouts():
    sim = Simulator()

    def proc():
        values = yield AllOf(sim, [sim.timeout(5, "a"), sim.timeout(12, "b")])
        assert values == ["a", "b"]
        assert sim.now == 12

    sim.run_process(proc())


def test_timeout_value_delivered_through_fast_path():
    sim = Simulator()

    def proc():
        got = yield sim.timeout(3, "payload")
        assert got == "payload"
        got = yield sim.timeout(3)
        assert got is None

    sim.run_process(proc())


# ------------------------------------------------- optimized vs reference
def _workload(sim):
    """A mixed workload touching every resume path: sleeps, events,
    process joins, combinators, and an interrupt."""
    trace = []
    ev = sim.event("ev")

    def child():
        yield sim.timeout(5)
        ev.trigger("go")
        return "child-done"

    def waiter():
        value = yield ev
        trace.append((sim.now, "ev", value))
        try:
            yield sim.timeout(100)
        except Interrupted:
            trace.append((sim.now, "interrupted"))

    def main():
        c = sim.spawn(child(), name="child")
        w = sim.spawn(waiter(), name="waiter")
        result = yield c
        trace.append((sim.now, "joined", result))
        idx, _ = yield AnyOf(sim, [sim.timeout(30), sim.timeout(60)])
        trace.append((sim.now, "anyof", idx))
        w.interrupt()
        yield sim.timeout(1)
        trace.append((sim.now, "end"))

    sim.run_process(main(), name="main")
    return trace, sim.now, sim.events_dispatched


def test_reference_kernel_dispatches_identical_events():
    opt = _workload(Simulator())
    ref = _workload(ReferenceSimulator())
    assert opt == ref  # same trace, same final time, same event count


def test_two_optimized_runs_are_deterministic():
    assert _workload(Simulator()) == _workload(Simulator())


# ------------------------------------------------------------- parking
class _Ticker(Park):
    """Parks a process that would otherwise wake every ``period`` ns,
    counting the wake-ups into ``counter[0]``.  Tickers with the same
    instants but different ``tag``s are in different schedule groups."""

    __slots__ = ("origin", "window", "period", "counter", "acc", "tag")

    def __init__(self, sim, period, counter, tag=None):
        super().__init__(sim)
        self.origin = self.acc = sim.now
        self.window = self.period = period
        self.counter = counter
        self.tag = tag

    def keys(self):
        return ((self.period, self.origin % self.period),)

    def schedule(self):
        return self.keys(), self.tag

    def settle(self, t):
        if t > self.acc:
            o, p = self.origin, self.period
            self.counter[0] += (t - o) // p - (self.acc - o) // p
            self.acc = t

    def current(self):
        o, p = self.origin, self.period
        start = o + (self.acc - o) // p * p
        return start, start + p, None

    def prev_instant(self, t):
        o, p = self.origin, self.period
        return o + (t - 1 - o) // p * p


def _assert_no_park_state(sim):
    """Once nothing is parked the kernel keeps no parking state: no
    groups, no residue index, no marker log and no sentinel in the heap."""
    assert not sim._parked and not sim._lockstep and not sim._park_index
    assert not sim._park_log
    assert not any(e[3] is sim._step for e in sim._heap)


def _ticker_run(sim, parked, wake_at, interrupt_at=None):
    """A process ticking every 70 ns until a flag set at ``wake_at``."""
    flag, out, box, ticks = [False], [], {}, [0]

    def proc():
        try:
            while not flag[0]:
                if parked:
                    park = box["park"] = _Ticker(sim, 70, ticks)
                    yield park
                else:
                    yield sim.timeout(70)
                ticks[0] += 1
        except Interrupted:
            out.append(("intr", sim.now))
        out.append((sim.now, ticks[0]))

    def wake():
        flag[0] = True
        if parked and box["park"].parked:
            box["park"].wake()

    sim.schedule(wake_at, wake)
    p = sim.spawn(proc())
    if interrupt_at is not None:
        sim.schedule(interrupt_at, lambda: p.interrupt("x"))
    sim.run(until=wake_at + 1_000)
    return out, sim.now


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_park_wake_resumes_at_the_loops_next_step(sim_cls):
    # 1003 is mid-step: the loop sees the flag at its next step, 1050
    full = _ticker_run(sim_cls(), False, 1003)
    parked_sim = sim_cls()
    parked = _ticker_run(parked_sim, True, 1003)
    assert parked == full == ([(1050, 15)], 2003)
    assert parked_sim.events_dispatched < 6
    _assert_no_park_state(parked_sim)


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_interrupting_a_parked_process(sim_cls):
    full = _ticker_run(sim_cls(), False, 5_000, interrupt_at=1003)
    parked = _ticker_run(sim_cls(), True, 5_000, interrupt_at=1003)
    assert parked == full
    assert full[0][0] == ("intr", 1003)


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_interrupt_cancels_a_materialized_park(sim_cls):
    # woken at 1003, interrupted before its entry at 1050 fires
    sim = sim_cls()
    full = _ticker_run(sim_cls(), False, 1003, interrupt_at=1020)
    parked = _ticker_run(sim, True, 1003, interrupt_at=1020)
    assert parked == full
    assert full[0][0] == ("intr", 1020)


def test_materialized_park_entry_returns_to_the_pool():
    sim = Simulator()
    _ticker_run(sim, True, 1003)
    pooled = len(sim._entry_pool)
    _ticker_run(sim, True, 3003)
    # the second run reuses pooled entries, materialized one included
    assert len(sim._entry_pool) == pooled
    assert all(len(e) == 5 and e[3] is None for e in sim._entry_pool)


def test_parked_counters_settle_when_run_returns():
    sim = Simulator()
    box = {}

    ticks = [0]

    def proc():
        box["park"] = _Ticker(sim, 70, ticks)
        yield box["park"]

    sim.spawn(proc())
    sim.run(until=700)
    # instants 70..700 inclusive: the run reached `until`
    assert ticks[0] == 10
    sim.run(until=769)
    assert ticks[0] == 10
    sim.run(until=770)
    assert ticks[0] == 11


def _lockstep_pair(sim_cls, parked):
    """Two loops ticking every 70 ns in lockstep from t=0.  A real event
    lands on their tick at 700; the first loop is woken at 650 and so
    holds a real entry at 700 in the same push gap as the second's
    virtual one; the run ends at 705, after that tied instant."""
    sim = sim_cls()
    ticks = [[0], [0]]
    flags = [False, False]
    parks = [None, None]
    out = []

    def loop(i):
        while not flags[i]:
            if parked:
                parks[i] = _Ticker(sim, 70, ticks[i])
                yield parks[i]
            else:
                yield sim.timeout(70)
            ticks[i][0] += 1
        out.append((i, sim.now, ticks[i][0]))

    def wake_first():
        flags[0] = True
        if parked:
            parks[0].wake()

    sim.schedule(700, lambda: out.append(("real", sim.now)))
    sim.spawn(loop(0))
    sim.spawn(loop(1))
    sim.schedule(650, wake_first)
    sim.run(until=705)
    return out, ticks[1][0], sim.now


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_parks_tied_in_one_gap_settle_at_run_exit(sim_cls):
    full = _lockstep_pair(sim_cls, False)
    assert _lockstep_pair(sim_cls, True) == full
    assert full == ([("real", 700), (0, 700, 10)], 10, 705)


def _ticker_group(sim_cls, parked, tags, chain=None, wakes=(), nudges=(), late_wakes=(),
                  idle=(), untils=(), end=3_000):
    """One loop per tag ticking every 70 ns from t=0; equal tags tick in
    one lockstep group.  ``chain=(k, t)`` adds a real process, created
    between loops ``k - 1`` and ``k``, that ticks with them (so it
    dispatches inside the group's gap at every instant) and stops every
    loop at ``t``.  A loop woken by ``wakes`` (time, loop) stops every
    loop when it next runs; one woken by ``nudges`` just parks again
    there, joining its group at that step.  Both are pushed at t=0, so a
    wake at a tick comes before the loops' steps there; ``late_wakes``
    are pushed 35 ns before, so they come after them.  Events at the
    ``idle`` times do nothing (the loops' steps there come after them, so
    parks made one after another step there as one run).  Returns each
    loop's (loop, exit time, ticks), the ticks when each ``run(until=)``
    in ``untils`` returned, and the final time."""
    sim = sim_cls()
    n = len(tags)
    ticks = [[0] for _ in tags]
    flags, woken, parks, out = [False] * n, [False] * n, [None] * n, []

    def stop_all():
        for i in range(n):
            flags[i] = True
            if parks[i] is not None and parks[i].parked:
                parks[i].wake()

    def loop(i):
        while not flags[i]:
            if parked:
                parks[i] = _Ticker(sim, 70, ticks[i], tags[i])
                yield parks[i]
            else:
                yield sim.timeout(70)
            ticks[i][0] += 1
            if woken[i]:
                stop_all()
        out.append((i, sim.now, ticks[i][0]))

    def chained(stop):
        while sim.now < stop:
            yield sim.timeout(70)
        stop_all()

    def wake(i, stop=True):
        woken[i] = woken[i] or stop
        if parks[i] is not None and parks[i].parked:
            parks[i].wake()

    for i in range(n):
        if chain is not None and i == chain[0]:
            sim.spawn(chained(chain[1]))
        sim.spawn(loop(i))
    for t, i in wakes:
        sim.schedule(t, wake, i)
    for t, i in nudges:
        sim.schedule(t, wake, i, False)
    for t, i in late_wakes:
        sim.schedule(t - 35, sim.schedule, 35, wake, i)
    for t in idle:
        sim.schedule(t, lambda: None)
    seen = []
    for until in untils:
        sim.run(until=until)
        seen.append([c[0] for c in ticks])
    sim.run(until=end)
    return sorted(out), seen, sim.now


def _lockstep_case(sim_cls, **kw):
    full = _ticker_group(sim_cls, False, **kw)
    parked_sim = sim_cls()
    assert _ticker_group(lambda: parked_sim, True, **kw) == full
    _assert_no_park_state(parked_sim)
    return full


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_two_schedule_groups_tied_at_one_instant(sim_cls):
    # loop 1 (group b) is woken mid-step: its entry at 700 lies in the
    # marker gap of both groups' virtual steps, so each group is placed
    # against it, group a by the loops' histories back to their parks
    out, _, _ = _lockstep_case(sim_cls, tags="abababa", wakes=[(650, 1)])
    assert [t for _, t, _ in out] == [770, 700, 700, 700, 700, 700, 700]


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_wake_of_the_middle_of_a_large_lockstep_group(sim_cls):
    # two members woken in one gap: their entries order between each
    # other and among the nine steps still parked by group order
    out, _, _ = _lockstep_case(sim_cls, tags="a" * 9, wakes=[(650, 6), (660, 4)])
    assert [t for _, t, _ in out] == [770] * 4 + [700] * 5
    # a member parking again at a tie instant rejoins behind the steps
    # taken there and ahead of those still pending
    out, _, _ = _lockstep_case(sim_cls, tags="a" * 9, nudges=[(650, 3)], wakes=[(1003, 4)])
    assert [t for _, t, _ in out] == [1120] * 4 + [1050] * 5


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_group_split_by_a_real_dispatch_inside_its_gap(sim_cls):
    # the real process steps between loops 2 and 3 at every instant, so
    # the group splits there at each tie; a wake then lands in one half
    out, _, _ = _lockstep_case(sim_cls, tags="a" * 6, chain=(3, 1400))
    assert [t for _, t, _ in out] == [1470] * 3 + [1400] * 3
    out, _, _ = _lockstep_case(sim_cls, tags="a" * 6, chain=(3, 2800), wakes=[(1003, 4)])
    assert [t for _, t, _ in out] == [1120] * 4 + [1050] * 2


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_run_until_exits_at_a_tie_instant_with_a_group_parked(sim_cls):
    out, seen, _ = _lockstep_case(sim_cls, tags="a" * 5, chain=(2, 1400),
                                  untils=(700, 735, 1050))
    assert seen == [[10] * 5, [10] * 5, [15] * 5]
    assert [t for _, t, _ in out] == [1470] * 2 + [1400] * 3


def _late_joiner(sim_cls, parked):
    """Loop 0 ticks every 70 ns from t=0 and ``run(until=700)`` returns
    with nothing due.  Then an event at 770 is scheduled, and loop 1, in
    loop 0's group, starts at 700.  At 770 the event schedules a stop of
    both loops at 840.  Returns each loop's (loop, exit time, ticks)."""
    sim = sim_cls()
    ticks, flags, parks, out = [[0], [0]], [False], [None, None], []

    def loop(i):
        while not flags[0]:
            if parked:
                parks[i] = _Ticker(sim, 70, ticks[i])
                yield parks[i]
            else:
                yield sim.timeout(70)
            ticks[i][0] += 1
        out.append((i, sim.now, ticks[i][0]))

    def stop():
        flags[0] = True
        for p in parks:
            if p is not None and p.parked:
                p.wake()

    sim.spawn(loop(0))
    sim.run(until=700)
    sim.schedule(70, sim.schedule, 70, stop)
    sim.spawn(loop(1))
    sim.run(until=3_000)
    _assert_no_park_state(sim)
    return sorted(out)


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_park_made_after_run_until_steps_behind_the_events_before_it(sim_cls):
    # loop 0's step at 700 was taken at the run's exit, loop 1's push
    # there comes after the event at 770: loop 1 steps behind it, so it
    # sees the stop at 840 and loop 0 does not
    full = _late_joiner(sim_cls, False)
    assert _late_joiner(sim_cls, True) == full == [(0, 910, 13), (1, 840, 2)]


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_wakes_of_the_ends_of_a_run_before_its_sentinel_pops(sim_cls):
    # the loops step as one run at 350; a wake at 700 comes before the
    # run's steps there: the woken loop runs at 700 at its own place, the
    # members ahead of it step first and those behind it after
    run = {"tags": "a" * 5, "idle": (350,)}
    out, _, _ = _lockstep_case(sim_cls, wakes=[(700, 0)], **run)
    assert [t for _, t, _ in out] == [700] * 5
    out, _, _ = _lockstep_case(sim_cls, wakes=[(700, 4)], **run)
    assert [t for _, t, _ in out] == [770] * 4 + [700]
    out, _, _ = _lockstep_case(sim_cls, wakes=[(700, 2)], **run)
    assert [t for _, t, _ in out] == [770] * 2 + [700] * 3
    # the members on either side of a loop woken (and parked again) there
    # still step at 700, so a wake after their steps resumes them at 770
    for woken in (0, 2):
        out, _, _ = _lockstep_case(sim_cls, nudges=[(700, woken)], late_wakes=[(700, 4)], **run)
        assert [t for _, t, _ in out] == [840] * 4 + [770]


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_park_joins_its_group_before_and_after_its_sentinel_pops(sim_cls):
    # loop 0, woken at 650, steps at 700 before the run's sentinel pops
    # and parks again ahead of the members still due; loop 4 steps and
    # parks behind them.  Either way the order stays 0..4, so a wake of
    # loop 2 at 1003 stops loops 0 and 1 a step later than the rest
    for nudged in (0, 4):
        out, _, _ = _lockstep_case(sim_cls, tags="a" * 5, idle=(350,),
                                   nudges=[(650, nudged)], wakes=[(1003, 2)])
        assert [t for _, t, _ in out] == [1120] * 2 + [1050] * 3


def _tie_exit(sim_cls, parked, max_events=None):
    """Three loops tick every 70 ns from t=0 in one group.  An event at
    350 and one at 700 (X1), both pushed at t=0, come before the loops'
    steps there; X2, pushed at 650 for 700, comes after them and stops
    every loop.  The first run returns after ``max_events``, or by
    ``stop=`` right after X1; then the run goes on to 2000.  Returns the
    time and ticks when the first run returned, each loop's (loop, exit
    time, ticks), and the events dispatched."""
    sim = sim_cls()
    ticks, flags, parks, out, seen = [[0], [0], [0]], [False], [None] * 3, [], []

    def loop(i):
        while not flags[0]:
            if parked:
                parks[i] = _Ticker(sim, 70, ticks[i])
                yield parks[i]
            else:
                yield sim.timeout(70)
            ticks[i][0] += 1
        out.append((i, sim.now, ticks[i][0]))

    def stop():
        flags[0] = True
        for p in parks:
            if p is not None and p.parked:
                p.wake()

    for i in range(3):
        sim.spawn(loop(i))
    sim.schedule(350, lambda: None)
    sim.schedule(700, seen.append, "x1")
    sim.schedule(650, sim.schedule, 50, stop)
    if max_events is None:
        sim.run(stop=lambda: bool(seen))
    else:
        sim.run(max_events=max_events)
    first = (sim.now, [c[0] for c in ticks])
    if parked:
        # the group's step at 700 is still due: its sentinel is in the heap
        assert any(e[0] == sim.now and e[3] is sim._step for e in sim._heap)
    sim.run(until=2_000)
    if parked:
        _assert_no_park_state(sim)
    return first, sorted(out), sim.events_dispatched


@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_run_returns_with_a_sentinel_due_at_the_current_instant(sim_cls):
    full, full_out, _ = _tie_exit(sim_cls, False)
    assert full == (700, [9, 9, 9])
    assert [t for _, t, _ in full_out] == [770] * 3
    for max_events in (None, 6):
        first, out, events = _tie_exit(sim_cls, True, max_events)
        assert (first, out) == (full, full_out)
        # sentinels are no events: the real ones are three spawns, the
        # events at 350 and 650, X1, X2 and each loop's last resume
        assert events == 10
