"""Deterministic discrete-event simulation kernel.

Everything in the reproduction — host CPUs, the LANai firmware loop, Myrinet
links and switches, Solaris kernel threads — runs as a *process* (a Python
generator) on one :class:`Simulator`.  Time is an integer count of
nanoseconds, so event ordering is exact and runs are reproducible
bit-for-bit.

A process advances by yielding *waitables*:

``yield Timeout(sim, delay_ns)``
    resume ``delay_ns`` later.
``yield event``
    resume when the :class:`Event` is triggered; the yield expression
    evaluates to the event's value.
``yield process``
    join another process; evaluates to its return value.
``yield AnyOf(sim, [w1, w2, ...])``
    resume when the first waitable fires; evaluates to ``(index, value)``.
``yield AllOf(sim, [w1, w2, ...])``
    resume when all fire; evaluates to the list of values.

Processes may be interrupted (:meth:`Process.interrupt`), which raises
:class:`Interrupted` inside the generator at its current wait point.

Hot-path design (see DESIGN.md "Kernel fast-path invariants"):

The kernel's determinism contract is *ordering plus integer time* — never
allocation identity.  That freedom is what the fast paths exploit:

* heap entries are 5-slot lists ``[when, seq, args, fn, poolable]``; the
  strictly-increasing ``seq`` guarantees comparisons never reach ``args``;
* entries created internally (``_post``, the process timeout fast path)
  are recycled through ``Simulator._entry_pool`` once dispatched, so
  steady-state scheduling allocates nothing;
* ``Simulator.timeout()`` hands out :class:`Timeout` objects from a
  free list; the process wait fast path returns them the moment their
  ``(delay, value)`` pair has been copied into a heap entry.  A pooled
  timeout is therefore *single-use*: yield it once, then call
  ``sim.timeout`` again (every call site in the tree does exactly this);
* ``Process._resume`` dispatches on the yielded object's exact class:
  ``Timeout`` and ``Event`` waits bypass ``_subscribe`` entirely — no
  handle objects, no cancel closures — while any other waitable falls
  back to the generic ``_subscribe`` protocol, so the extension point
  is unchanged.

Every fast path preserves the exact (when, seq)-relative ordering of the
straight-line implementation (kept as :mod:`repro.sim.reference`);
``benchmarks/test_perf_regression.py`` pins bit-identical timelines
between the two kernels.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Simulator",
    "NULL_TRACE",
    "Park",
    "Process",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Interrupted",
    "SimError",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_S",
    "us",
    "ms",
    "seconds",
]

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

_heappush = heapq.heappush
_heappop = heapq.heappop

#: shared args tuple for value-less resumes (the overwhelmingly common case)
_NO_VALUE_ARGS: tuple = (None, None)


def us(x: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(x * NS_PER_US)


def ms(x: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(x * NS_PER_MS)


def seconds(x: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(x * NS_PER_S)


class _NullTrace:
    """Default trace sink: tracing off costs one attribute check.

    :class:`repro.obs.bus.TraceBus` replaces this via ``TraceBus.attach``.
    The kernel only knows the two-member protocol (``enabled``, ``emit``)
    so :mod:`repro.sim` never imports :mod:`repro.obs`.
    """

    __slots__ = ()
    enabled = False

    def emit(self, kind: str, node: int = -1, **args: Any) -> None:
        pass


#: shared nil sink installed on every new Simulator
NULL_TRACE = _NullTrace()


class SimError(Exception):
    """Base class for simulation kernel errors."""


class Interrupted(SimError):
    """Raised inside a process that another process interrupted.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event is triggered exactly once, either with a value
    (:meth:`trigger`) or with an exception (:meth:`fail`).  Waiting on an
    already-triggered event resumes the waiter immediately (at the current
    simulation time, not synchronously).
    """

    __slots__ = ("sim", "_waiters", "_done", "_value", "_exc", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._waiters: list[Callable[[Any, Optional[BaseException]], None]] = []
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimError(f"event {self.name!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        if self._done:
            raise SimError(f"event {self.name!r} triggered twice")
        self._done = True
        self._value = value
        self._flush()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._done:
            raise SimError(f"event {self.name!r} triggered twice")
        self._done = True
        self._exc = exc
        self._flush()
        return self

    def _flush(self) -> None:
        waiters = self._waiters
        if waiters:
            self._waiters = []
            post = self.sim._post
            value, exc = self._value, self._exc
            for cb in waiters:
                post(cb, value, exc)

    # -- waitable protocol -------------------------------------------------
    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        """Register ``cb(value, exc)``; returns an unsubscribe callable."""
        if self._done:
            self.sim._post(cb, self._value, self._exc)
            return lambda: None
        self._waiters.append(cb)

        def cancel() -> None:
            try:
                self._waiters.remove(cb)
            except ValueError:
                pass

        return cancel


class Timeout:
    """Waitable that fires ``delay`` nanoseconds after it is waited on.

    Instances handed out by :meth:`Simulator.timeout` come from a free
    list and are recycled the moment a process wait consumes them —
    treat them as single-use (yield once, or hand to one combinator).
    Directly constructed instances are never pooled.
    """

    __slots__ = ("sim", "delay", "value", "_pooled")

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimError(f"negative timeout: {delay}")
        self.sim = sim
        self.delay = int(delay)
        self.value = value
        self._pooled = False

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        handle = self.sim.schedule(self.delay, cb, self.value, None)
        return handle.cancel


class AnyOf:
    """Waitable combinator: fires with ``(index, value)`` of the first child."""

    __slots__ = ("sim", "waitables")

    def __init__(self, sim: "Simulator", waitables: Iterable[Any]):
        self.sim = sim
        self.waitables = list(waitables)
        if not self.waitables:
            raise SimError("AnyOf of nothing")

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        cancels: list[Callable[[], None]] = []
        fired = [False]

        def make(i: int) -> Callable[[Any, Optional[BaseException]], None]:
            def inner(value: Any, exc: Optional[BaseException]) -> None:
                if fired[0]:
                    return
                fired[0] = True
                for c in cancels:
                    c()
                if exc is not None:
                    cb(None, exc)
                else:
                    cb((i, value), None)

            return inner

        for i, w in enumerate(self.waitables):
            cancels.append(_as_waitable(self.sim, w)._subscribe(make(i)))

        def cancel_all() -> None:
            fired[0] = True
            for c in cancels:
                c()

        return cancel_all


class AllOf:
    """Waitable combinator: fires with the list of all child values."""

    __slots__ = ("sim", "waitables")

    def __init__(self, sim: "Simulator", waitables: Iterable[Any]):
        self.sim = sim
        self.waitables = list(waitables)

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        n = len(self.waitables)
        if n == 0:
            self.sim._post(cb, [], None)
            return lambda: None
        values: list[Any] = [None] * n
        remaining = [n]
        dead = [False]
        cancels: list[Callable[[], None]] = []

        def make(i: int) -> Callable[[Any, Optional[BaseException]], None]:
            def inner(value: Any, exc: Optional[BaseException]) -> None:
                if dead[0]:
                    return
                if exc is not None:
                    dead[0] = True
                    for c in cancels:
                        c()
                    cb(None, exc)
                    return
                values[i] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    cb(values, None)

            return inner

        for i, w in enumerate(self.waitables):
            cancels.append(_as_waitable(self.sim, w)._subscribe(make(i)))

        def cancel_all() -> None:
            dead[0] = True
            for c in cancels:
                c()

        return cancel_all


class Park:
    """Waitable: suspend a process inside a loop whose iterations are a
    closed-form function of time (spin elision, DESIGN.md §16).

    The loop it replaces would have been resumed at a series of
    *virtual instants*; a parked process is resumed at none of them and
    has no heap entry.  A subclass describes the loop:

    * ``origin``: the park time, the first virtual push;
    * ``window``: an upper bound on the gap between virtual instants;
    * ``keys()``: ``(modulus, residue)`` pairs such that a time after
      ``origin`` is a virtual instant iff ``t % modulus == residue`` for
      one of them;
    * ``schedule()``: a hashable key; two parks with equal keys have the
      same ``keys()`` and the same virtual instants from the later park
      time on (they step in lockstep);
    * ``settle(t)``: apply the effects of every virtual instant ``<= t``
      (idempotent; the watermark only moves forward);
    * ``current()``: after a settle, ``(start, end, value)`` of the step
      the loop is in — the instant its pending heap entry was pushed,
      the instant it fires, and the value to resume the process with;
    * ``prev_instant(t)``: the last virtual instant before ``t``;
    * ``_attach()`` / ``_detach()``: install and remove the hooks that
      call :meth:`wake`.

    :meth:`wake` turns the park back into one real heap entry, ordered
    exactly where the loop's own entry would have been, so the process
    resumes at the step where it would have seen the change.
    """

    __slots__ = ("sim", "_cb", "_p0", "_entry", "_state", "_group", "_left")

    PARKED, LIVE, DONE = 0, 1, 2

    origin: int
    window: int

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb: Optional[Callable] = None
        self._p0 = 0
        self._entry: Optional[list] = None
        self._state = Park.DONE
        self._group: Optional[_Lockstep] = None
        #: the group's members when this park left it (its rank stays known)
        self._left: Optional[list] = None

    @property
    def parked(self) -> bool:
        return self._state == Park.PARKED

    def _subscribe(self, cb: Callable[[Any, Optional[BaseException]], None]) -> Callable[[], None]:
        self.sim._park(self, cb)
        return self._cancel

    def wake(self) -> None:
        """Resume the loop in full fidelity from the step it is in now."""
        if self._state == Park.PARKED:
            self.sim._unpark(self)

    def settle_now(self) -> None:
        """Bring the loop's counters up to the current instant."""
        if self._state == Park.PARKED:
            self.settle(self.sim._park_acc(self))

    def _cancel(self) -> None:
        # Process.interrupt: the loop stops mid-step, like a canceled
        # heap entry — its steps so far count, the current one does not
        if self._state == Park.PARKED:
            self.sim._unpark(self, materialize=False)
        elif self._entry is not None:
            self._entry[3] = None
        self._entry = None
        self._state = Park.DONE

    # -- subclass protocol ---------------------------------------------------
    def keys(self) -> Iterable[tuple[int, int]]:
        raise NotImplementedError

    def schedule(self) -> Any:
        raise NotImplementedError

    def settle(self, t: int) -> None:
        raise NotImplementedError

    def current(self) -> tuple[int, int, Any]:
        raise NotImplementedError

    def prev_instant(self, t: int) -> int:
        raise NotImplementedError

    def _attach(self) -> None:
        pass

    def _detach(self) -> None:
        pass


class _Lockstep:
    """The parks with one ``Park.schedule()``: they step at the same
    virtual instants, so the order of their steps never changes."""

    __slots__ = ("members", "cuts")

    def __init__(self, park: Park):
        #: in step order; replaced on every change, so snapshots stay valid
        self.members = [park]
        #: each recent instant tied with a real dispatch -> the members
        #: then and their push seqs there
        self.cuts: dict[int, tuple[list, list]] = {}


def _as_waitable(sim: "Simulator", obj: Any) -> Any:
    """Normalize a yielded object to something with ``_subscribe``."""
    if isinstance(obj, Process):
        return obj.done
    if hasattr(obj, "_subscribe"):
        return obj
    raise SimError(f"cannot wait on {obj!r}")


class Process:
    """A generator-based simulation process.

    The wrapped generator's return value becomes :attr:`result` and is
    delivered to any process joining via ``yield process``.  An uncaught
    exception propagates to joiners, or aborts the simulation run if nobody
    joined (errors must never pass silently).
    """

    __slots__ = ("sim", "name", "_gen", "done", "_cancel_wait", "_finished")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done = Event(sim, name=f"{self.name}.done")
        # None | heap entry (list) | Event | cancel callable — see interrupt()
        self._cancel_wait: Any = None
        self._finished = False

    def __repr__(self) -> str:
        state = "done" if self._finished else "active"
        return f"<Process {self.name} {state}>"

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        return self.done.value

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its wait point."""
        if self._finished:
            return
        cw = self._cancel_wait
        if cw is not None:
            cls = cw.__class__
            if cls is list:
                cw[3] = None  # cancel the pending heap entry in place
            elif cls is Event:
                try:
                    cw._waiters.remove(self._resume)
                except ValueError:
                    pass
            else:
                cw()
            self._cancel_wait = None
        self.sim._post(self._resume, None, Interrupted(cause))

    # -- stepping ----------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._finished:
            return
        self._cancel_wait = None
        sim = self.sim
        sim._current = self
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except Interrupted as unhandled:
            self._finish_fail(unhandled)
            return
        except Exception as err:  # noqa: BLE001 - propagate to joiners
            self._finish_fail(err)
            return
        finally:
            sim._current = None
        # -- fast-path dispatch on the yielded waitable's exact class ------
        cls = target.__class__
        if cls is Timeout:
            tvalue = target.value
            args = _NO_VALUE_ARGS if tvalue is None else (tvalue, None)
            pool = sim._entry_pool
            if pool:
                entry = pool.pop()
                entry[0] = sim.now + target.delay
                entry[1] = next(sim._seq)
                entry[2] = args
                entry[3] = self._resume
            else:
                entry = [sim.now + target.delay, next(sim._seq), args, self._resume, True]
            _heappush(sim._heap, entry)
            self._cancel_wait = entry
            if target._pooled:
                target._pooled = False
                sim._timeout_pool.append(target)
            return
        if cls is Process:
            target = target.done
            cls = Event
        if cls is Event:
            if target._done:
                sim._post(self._resume, target._value, target._exc)
            else:
                target._waiters.append(self._resume)
                self._cancel_wait = target
            return
        try:
            waitable = _as_waitable(sim, target)
        except SimError as err:
            self._finish_fail(err)
            return
        self._cancel_wait = waitable._subscribe(self._resume)

    def _finish_ok(self, value: Any) -> None:
        self._finished = True
        if self.sim.trace.enabled:
            self.sim.trace.emit("sim.exit", proc=self.name, ok=True)
        self.done.trigger(value)

    def _finish_fail(self, exc: BaseException) -> None:
        self._finished = True
        if self.sim.trace.enabled:
            self.sim.trace.emit("sim.exit", proc=self.name, ok=False)
        if self.done._waiters:
            self.done.fail(exc)
        else:
            # Nobody is joining: mark done and abort the run loudly.
            self.done._done = True
            self.done._exc = exc
            self.sim._crash(self, exc)


class _Handle:
    """Cancelable handle for a scheduled callback."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[3] = None


class Simulator:
    """The event loop: a heap of timestamped callbacks plus process plumbing."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._current: Optional[Process] = None
        self._crashed: Optional[tuple[Process, BaseException]] = None
        self._nprocesses = 0
        #: cumulative count of dispatched events (perf harness metric)
        self.events_dispatched = 0
        #: recycled heap entries (only internally created, handle-less ones)
        self._entry_pool: list[list] = []
        #: recycled Timeout objects handed out by :meth:`timeout`
        self._timeout_pool: list[Timeout] = []
        #: observer-only trace sink (see repro.obs); nil by default
        self.trace: Any = NULL_TRACE
        #: parked processes (see Park); the run loop watches this list
        self._parked: list[Park] = []
        #: schedule() -> its lockstep group of parks
        self._lockstep: dict[Any, _Lockstep] = {}
        #: modulus -> residue -> groups with a virtual instant there
        self._park_index: dict[int, dict[int, list[_Lockstep]]] = {}
        #: (time, seq marker) per time advance while anything is parked
        #: (bounded: pruned to the last few ``_park_window`` ns)
        self._park_log: list[tuple] = []
        self._park_window = 0
        #: (when, seq) -> [[park, start, seq, key]] materialized with one
        #: push seq, in step order; ``key`` is the entry's own heap key
        self._live: dict[tuple, list] = {}
        #: (when, key) of a materialized entry -> its item
        self._park_items: dict[Any, list] = {}
        #: the current tie instant: its time, the groups that step there (->
        #: their members then), and the seq and a marker per real dispatch
        self._tie_at: Optional[int] = None
        self._tie_groups: dict[_Lockstep, list] = {}
        self._tie_log: list = []
        self._tie_marks: list = []

    # -- low-level scheduling ----------------------------------------------
    def schedule(self, delay: int, fn: Callable, *args: Any) -> _Handle:
        """Run ``fn(*args)`` after ``delay`` ns. Returns a cancelable handle."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + int(delay), next(self._seq), args, fn, False]
        _heappush(self._heap, entry)
        return _Handle(entry)

    def call_after(self, delay: int, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` after ``delay`` ns; pooled one-shot callback.

        The hot-path sibling of :meth:`schedule`: the heap entry is
        recycled after dispatch, so steady-state callers allocate
        nothing.  Returns the raw entry; cancel by setting
        ``entry[3] = None`` (the callback slot both kernels share) and
        dropping the reference — a canceled entry is reclaimed when it
        surfaces.  Unlike :meth:`schedule` there is no handle object, so
        holders must not touch the entry after it may have fired.
        """
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self.now + int(delay)
            entry[1] = next(self._seq)
            entry[2] = args
            entry[3] = fn
        else:
            entry = [self.now + int(delay), next(self._seq), args, fn, True]
        _heappush(self._heap, entry)
        return entry

    def _post(self, fn: Callable, *args: Any) -> None:
        """Schedule at the current time (preserving FIFO order).

        Unlike :meth:`schedule` this returns no handle, so the entry is
        recycled after dispatch.
        """
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self.now
            entry[1] = next(self._seq)
            entry[2] = args
            entry[3] = fn
        else:
            entry = [self.now, next(self._seq), args, fn, True]
        _heappush(self._heap, entry)

    def _push_entry(self, when: int, seq: Any, fn: Callable, args: tuple) -> list:
        """Push a pooled entry with an explicit sequence key (parking)."""
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = args
            entry[3] = fn
        else:
            entry = [when, seq, args, fn, True]
        _heappush(self._heap, entry)
        return entry

    def _crash(self, proc: Process, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = (proc, exc)

    # -- parking (spin elision, DESIGN.md §16) -------------------------------
    #
    # A virtual instant's step is ordered against real events by the seq
    # its entry would have had, known relative to markers: ``_park_log``
    # records a fresh seq at every time advance while anything is parked,
    # and at an instant where some group has a virtual step (a *tie*
    # instant) ``_tie_log`` records one per real dispatch.  A push at a
    # virtual instant lies just below the marker of the first real
    # dispatch after it.  A lockstep group is placed once per tie instant.

    def _park(self, park: Park, cb: Callable) -> None:
        park._cb = cb
        # the seq the loop's first step would have been pushed with
        park._p0 = next(self._seq)
        park._entry = None
        park._state = Park.PARKED
        park._left = None
        self._parked.append(park)
        key = park.schedule()
        group = park._group = self._lockstep.get(key)
        if group is None:
            group = park._group = self._lockstep[key] = _Lockstep(park)
            for mod, res in park.keys():
                self._park_index.setdefault(mod, {}).setdefault(res, []).append(group)
        else:
            members = group.members
            pos = len(members)
            if group in self._tie_groups:
                # behind the steps taken here so far, and the parks made here
                now, then = self.now, self._tie_groups[group]
                slots = self._tie_steps(group, then, now)
                taken = then[:bisect.bisect_left(slots, len(self._tie_log))]
                pos = bisect.bisect_left(members, True, key=lambda p: p.origin != now
                                         and p not in taken)
            group.members = members[:pos] + [park] + members[pos:]
        self._park_window = max(self._park_window, park.window)
        park._attach()

    def _park_acc(self, park: Park) -> int:
        """The last instant of ``park`` already stepped through at the
        current point of the run: ``now`` itself only if its virtual step
        there comes before the real event being (or last) dispatched."""
        now = self.now
        if (self._tie_log and park._group in self._tie_groups and park.origin < now
                and self._tie_steps(park._group, [park], now)[0] < len(self._tie_log)):
            return now
        return now - 1

    def _push_seq(self, park: Park, t: int) -> Any:
        """The seq of the entry ``park``'s loop pushed at its instant ``t``."""
        if t == park.origin:
            return park._p0
        cut = park._group.cuts.get(t)
        if cut is not None:
            return cut[1][cut[0].index(park)]
        if t == self._tie_at and park._group in self._tie_groups:
            k = self._tie_steps(park._group, [park], t)[0]
            if k == len(self._tie_log):
                raise SimError(f"virtual step at {t} has not been taken yet")
            return self._tie_marks[k] - 0.5
        log = self._park_log
        i = bisect.bisect_right(log, (t, math.inf))
        if i == len(log):
            raise SimError(f"no time advance recorded after virtual instant {t}")
        return log[i][1] - 0.5

    def _push_before(self, a: Park, sa: int, va: Any, b: Park, sb: int, vb: Any) -> bool:
        """Was ``a``'s push at its instant ``sa`` (seq ``va``) made before
        ``b``'s at ``sb`` (seq ``vb``)?  Pushes in one marker gap are
        ordered by time, then by the steps that made them."""
        while True:
            if va != vb:
                return va < vb
            if sa != sb:
                return sa < sb
            if a._group is b._group:
                # one group keeps one order: read it off a list with both
                m = next(m for m in (a._left, b._left, a._group.members)
                         if m is not None and a in m and b in m)
                return m.index(a) < m.index(b)
            sa, sb = a.prev_instant(sa), b.prev_instant(sb)
            va, vb = self._push_seq(a, sa), self._push_seq(b, sb)

    def _tie_steps(self, group: _Lockstep, members: list, t: int) -> list[int]:
        """For each of ``members`` (in step order), the real dispatch at
        the open tie instant ``t`` its step there comes just before (the
        dispatch count so far while it waits behind every one)."""
        s = members[0].prev_instant(t)
        last = group.cuts.get(s)
        if last is not None and last[0] is members:
            seqs = last[1]
        elif last is None:
            # no tie at s: one push seq for the members parked before it
            v = next((self._push_seq(p, s) for p in members if p.origin != s), None)
            seqs = [p._p0 if p.origin == s else v for p in members]
        else:  # the members changed since the tie at s
            seqs = [p._p0 if p.origin == s else last[1][last[0].index(p)] for p in members]
        log, items = self._tie_log, self._park_items
        slots: list[int] = []
        lo, n = 0, len(seqs)
        while lo < n:
            # a run of equal push seqs (they never fall in step order)
            v = seqs[lo]
            hi = bisect.bisect_right(seqs, v, lo)
            if v.__class__ is int:
                k = bisect.bisect_right(log, v)
            else:
                k = bisect.bisect_right(log, v - 0.5)
                # a materialized entry in v's own marker gap splits the run
                while lo < hi and k < len(log) and log[k] < v + 0.5:
                    b, sb, vb = items[t, log[k]][:3]
                    cut = bisect.bisect_left(members, True, lo, hi, key=lambda p: not
                                             self._push_before(p, s, v, b, sb, vb))
                    slots += [k] * (cut - lo)
                    lo = cut
                    k += 1
            slots += [k] * (hi - lo)
            lo = hi
        return slots

    def _end_tie(self, marker: int) -> None:
        """Close the current tie instant: every step still pending there
        is pushed before ``marker``."""
        t = self._tie_at
        marks = self._tie_marks
        marks.append(marker)
        horizon = t - 8 * self._park_window - 1
        for group, members in self._tie_groups.items():
            slots = self._tie_steps(group, members, t)
            group.cuts[t] = (members, [marks[k] - 0.5 for k in slots])
            if len(group.cuts) > 32 and next(iter(group.cuts)) < horizon:
                group.cuts = {k: v for k, v in group.cuts.items() if k >= horizon}
        self._tie_groups = {}

    def _unpark(self, park: Park, materialize: bool = True) -> None:
        """Settle ``park`` to the current point and take it off the park
        list; unless canceling, push the heap entry of its current step."""
        park.settle(self._park_acc(park))
        park._detach()
        group = park._group
        park._left = members = group.members
        i = members.index(park)
        group.members = members[:i] + members[i + 1:]
        if materialize:
            start, end, value = park.current()
            seq = self._push_seq(park, start)
            # in one marker gap: key the entry between its step-order neighbours
            live = self._live.setdefault((end, seq), [])
            k = bisect.bisect_left(live, True, key=lambda it: self._push_before(
                park, start, seq, it[0], it[1], it[2]))
            lo = live[k - 1][3] if k else seq - 0.5
            hi = live[k][3] if k < len(live) else seq + 0.5
            key = (lo + hi) / 2 if live else seq
            if not lo < key < hi:
                raise SimError(f"no sequence key left between {lo} and {hi}")
            live.insert(k, [park, start, seq, key])
            self._park_items[end, key] = live[k]
            park._entry = self._push_entry(end, key, park._cb, (value, None))
            park._state = Park.LIVE
        self._parked.remove(park)
        if not group.members:
            del self._lockstep[park.schedule()]
            for mod, res in park.keys():
                groups = self._park_index[mod]
                groups[res].remove(group)
                if not groups[res]:
                    del groups[res]
                    if not groups:
                        del self._park_index[mod]
        if not self._parked:
            self._park_log.clear()
            for items in self._live.values():
                for item in items:
                    item[0]._left = None
            self._live.clear()
            self._park_items.clear()
            self._park_window = 0
            self._tie_groups = {}

    def _park_advance(self, when: int) -> None:
        """Time is about to advance to ``when`` (a real event is due):
        record a marker, and start a tie log if a group steps there."""
        marker = next(self._seq)
        if self._tie_groups:
            self._end_tie(marker)
        log = self._park_log
        log.append((when, marker))
        if len(log) > 256:
            del log[:bisect.bisect_left(log, (when - 8 * self._park_window - 1,))]
        live = self._live
        if live:
            for key in [k for k in live if k[0] < when]:
                for item in live.pop(key):
                    del self._park_items[key[0], item[3]]
                    item[0]._left = None  # its rank is asked for no more
        self.now = when
        tied = {}
        for mod, residues in self._park_index.items():
            for group in residues.get(when % mod, ()):
                tied[group] = group.members
        if tied:
            self._tie_log, self._tie_marks, self._tie_groups, self._tie_at = [], [], tied, when

    def _park_settle(self, through_until: bool) -> None:
        """Run exit: settle every parked loop and mark the boundary, so
        entries pushed from here on order after its steps so far.  At
        ``until`` every step due there has been taken."""
        marker = next(self._seq)
        if through_until:
            if self._tie_groups:
                self._end_tie(marker)
            for park in self._parked:
                park.settle(self.now)
        else:
            for park in self._parked:
                park.settle(self._park_acc(park))
        self._park_log.append((self.now + 0.5, marker))

    def wake_parked(self) -> None:
        """Resume every parked process in full fidelity (tracing on)."""
        for park in list(self._parked):
            park.wake()

    # -- process API ---------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator; it runs from the next tick."""
        proc = Process(self, gen, name=name)
        self._nprocesses += 1
        if self.trace.enabled:
            self.trace.emit("sim.spawn", proc=proc.name)
        self._post(proc._resume, None, None)
        return proc

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """A single-use timeout from the free list (see :class:`Timeout`)."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimError(f"negative timeout: {delay}")
            t = pool.pop()
            t.delay = int(delay)
            t.value = value
            t._pooled = True
            return t
        t = Timeout(self, delay, value)
        t._pooled = True
        return t

    #: alias: the zero-allocation sleep path is just a pooled timeout
    sleep = timeout

    def any_of(self, waitables: Iterable[Any]) -> AnyOf:
        return AnyOf(self, waitables)

    def all_of(self, waitables: Iterable[Any]) -> AllOf:
        return AllOf(self, waitables)

    def process_count(self) -> int:
        return self._nprocesses

    # -- run loop ------------------------------------------------------------
    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until the heap drains, ``until`` ns is reached, ``max_events``
        have fired, or ``stop()`` returns True (checked after each event).

        Returns the simulation time at exit.  Re-raises the first uncaught
        process exception.  Parked processes (:class:`Park`) are settled
        on exit: through ``until`` when the run reached it, else through
        the last instant before ``now``.
        """
        heap = self._heap
        pop = _heappop
        entry_pool = self._entry_pool
        parked = self._parked
        count = 0
        through_until = False
        try:
            while heap:
                if self._crashed is not None:
                    proc, exc = self._crashed
                    self._crashed = None
                    raise SimError(f"uncaught exception in process {proc.name!r}") from exc
                top = heap[0]
                when = top[0]
                if until is not None and when > until:
                    self.now = until
                    through_until = True
                    return self.now
                if parked and when != self.now and top[3] is not None:
                    self._park_advance(when)
                entry = pop(heap)
                fn = entry[3]
                if fn is None:  # canceled
                    if entry[4]:
                        entry[2] = None
                        entry_pool.append(entry)
                    continue
                self.now = when
                if parked and self._tie_groups:
                    self._tie_log.append(entry[1])
                    self._tie_marks.append(next(self._seq))
                fn(*entry[2])
                if entry[4]:
                    entry[2] = None
                    entry[3] = None
                    entry_pool.append(entry)
                count += 1
                if stop is not None and stop():
                    return self.now
                if max_events is not None and count >= max_events:
                    return self.now
            if self._crashed is not None:
                proc, exc = self._crashed
                self._crashed = None
                raise SimError(f"uncaught exception in process {proc.name!r}") from exc
            if until is not None:
                self.now = max(self.now, until)
                through_until = True
            return self.now
        finally:
            self.events_dispatched += count
            if parked:
                self._park_settle(through_until)

    def run_process(self, gen: Generator, name: str = "", until: Optional[int] = None) -> Any:
        """Spawn ``gen`` and run until *it* finishes; return its result.

        Stops as soon as the process completes even if other (long-lived)
        processes keep the event heap populated.
        """
        proc = self.spawn(gen, name=name)
        done = {}
        proc.done._subscribe(lambda value, exc: done.setdefault("d", True))
        self.run(until=until, stop=lambda: "d" in done)
        if not proc.finished:
            raise SimError(f"process {proc.name!r} did not finish by t={self.now}")
        return proc.result
