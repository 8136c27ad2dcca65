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

    __slots__ = ("sim", "_cb", "_entry", "_state", "_run")

    PARKED, LIVE, DONE = 0, 1, 2

    origin: int
    window: int

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._cb: Optional[Callable] = None
        self._entry: Optional[list] = None
        self._state = Park.DONE
        self._run: Optional[_Run] = None

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

    __slots__ = ("key", "runs", "due")

    def __init__(self, key: Any):
        self.key = key
        #: the group's runs (their keys order them)
        self.runs: list[_Run] = []
        #: the last instant its sentinels were pushed for
        self.due = -1


class _Run:
    """Members of one group whose pushes are adjacent: nothing else was
    pushed between them.  At ``at`` they pushed with the keys that split
    ``(lo, hi)`` evenly, in step order; at their instants since then time
    did not stop, so their pushes there have :class:`_GapKey` keys.
    ``entry`` is their sentinel while it is due."""

    __slots__ = ("group", "members", "at", "lo", "hi", "entry")

    def __init__(self, group: _Lockstep, members: list, at: int, lo: Any, hi: Any):
        self.group = group
        self.members = members
        self.at = at
        self.lo = lo
        self.hi = hi
        self.entry: Optional[list] = None


class _GapKey:
    """The seq of a push at virtual instant ``t`` that no real dispatch
    shares: below ``m``, the first seq taken after ``t``, and above every
    seq taken before.  ``park``'s loop made it, in ``group``, from the key
    ``base`` it pushed with at ``at`` and pushes at instants between."""

    __slots__ = ("t", "m", "park", "group", "at", "base")

    def __init__(self, t: int, m: int, park: Park, group: _Lockstep, at: int, base: Any):
        self.t = t
        self.m = m
        self.park = park
        self.group = group
        self.at = at
        self.base = base

    def __lt__(self, other: Any) -> bool:
        if other.__class__ is _GapKey:
            return _gap_before(self, other)
        return self.m <= other

    def __gt__(self, other: Any) -> bool:
        if other.__class__ is _GapKey:
            return _gap_before(other, self)
        return self.m > other


def _gap_before(a: _GapKey, b: _GapKey) -> bool:
    """Was push ``a`` made before push ``b``?  Pushes are ordered by time,
    then by the entries they were made from: the loops' pushes at their
    instants before, back to where the two part.  A push a loop made when
    its run stepped (``at``) follows any made at the same instant that no
    real dispatch shared: that instant was then a ``run(until=)`` exit."""
    ta, tb = a.t, b.t
    while True:
        if ta != tb:
            return ta < tb
        if ta == a.at or tb == b.at:
            if ta == a.at and tb == b.at:
                return a.base < b.base
            return tb == b.at
        if a.group is b.group:  # lockstep: straight back to the later run step
            ta = tb = max(a.at, b.at)
        else:
            ta, tb = a.park.prev_instant(ta), b.park.prev_instant(tb)


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
        #: the callback of every sentinel entry (the run loop tells them
        #: from real events by it)
        self._step = self._step_run

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
    # A group's members step at a virtual instant in the order of the
    # entries their loops pushed, and runs of them whose pushes were
    # adjacent step together.  When time advances to an instant where a
    # group steps, each run gets a *sentinel*: a heap entry keyed just
    # below its first member's entry, so the heap orders the run's steps
    # against every real entry there.  A sentinel is no event: it takes the seq the
    # run pushes with and pops without being counted.  A push at an instant
    # time never stops at lies below the next marker in ``_park_log``.

    def _park(self, park: Park, cb: Callable) -> None:
        park._cb = cb
        park._entry = None
        park._state = Park.PARKED
        self._parked.append(park)
        # the seq the loop's first step would have been pushed with
        seq = next(self._seq)
        key = park.schedule()
        group = self._lockstep.get(key)
        if group is None:
            group = self._lockstep[key] = _Lockstep(key)
            for mod, res in park.keys():
                self._park_index.setdefault(mod, {}).setdefault(res, []).append(group)
        park._run = _Run(group, [park], self.now, seq, seq + 1)
        group.runs.append(park._run)
        self._park_window = max(self._park_window, park.window)
        park._attach()

    def _park_acc(self, park: Park) -> int:
        """The last instant of ``park`` already stepped through at the
        current point of the run: ``now`` itself once its run stepped."""
        now = self.now
        return now if park._run.at == now else now - 1

    def _gap_key(self, t: int, park: Park, run: _Run, base: Any) -> _GapKey:
        """The key of ``park``'s push at ``t``, an instant after its run
        last stepped (where it pushed with ``base``)."""
        log = self._park_log
        i = bisect.bisect_right(log, (t, math.inf))
        if i == len(log):
            raise SimError(f"no time advance recorded after virtual instant {t}")
        return _GapKey(t, log[i][1], park, run.group, run.at, base)

    def _sentinel(self, run: _Run, t: int, s: int) -> None:
        """Push the sentinel of ``run``, which steps at ``t`` from its
        pushes at ``s``: keyed just before its first member's entry (half a
        key step, so it never ties with an entry materialized there)."""
        half = run.lo + (run.hi - run.lo) / (2 * len(run.members) + 2)
        key = half if run.at == s else self._gap_key(s, run.members[0], run, half)
        run.entry = self._push_entry(t, key, self._step, (run,))

    def _step_run(self, run: _Run) -> None:
        """A sentinel pops: ``run`` steps at ``now`` and pushes under one
        fresh seq; right behind a run of its group, it joins that run."""
        run.entry = None
        seq = next(self._seq)
        runs = run.group.runs
        for prev in runs:
            if prev.at == self.now and prev.hi == seq:
                prev.members += run.members
                prev.hi = seq + 1
                for park in run.members:
                    park._run = prev
                runs.remove(run)
                return
        run.at, run.lo, run.hi = self.now, seq, seq + 1

    def _unpark(self, park: Park, materialize: bool = True) -> None:
        """Settle ``park`` to the current point and take it off the park
        list; unless canceling, push the heap entry of its current step."""
        park.settle(self._park_acc(park))
        park._detach()
        run = park._run
        park._run = None
        members = run.members
        i = members.index(park)
        key = run.lo + (i + 1) * (run.hi - run.lo) / (len(members) + 1)
        if materialize:
            start, end, value = park.current()
            seq = key if start == run.at else self._gap_key(start, park, run, key)
            park._entry = self._push_entry(end, seq, park._cb, (value, None))
            park._state = Park.LIVE
        # the members on either side stay runs, with their keys unchanged
        runs = run.group.runs
        due = run.entry
        if due is not None and not i:
            due[3] = None
            run.entry = None
        right = members[i + 1:]
        if right:
            rest = _Run(run.group, right, run.at, key, run.hi)
            for p in right:
                p._run = rest
            runs.append(rest)
            if due is not None:
                self._sentinel(rest, self.now, park.prev_instant(self.now))
        if i:
            run.members, run.hi = members[:i], key
        else:
            runs.remove(run)
        self._parked.remove(park)
        if not runs:
            del self._lockstep[run.group.key]
            for mod, res in park.keys():
                groups = self._park_index[mod]
                groups[res].remove(run.group)
                if not groups[res]:
                    del groups[res]
                    if not groups:
                        del self._park_index[mod]
        if not self._parked:
            self._park_log.clear()
            self._park_window = 0

    def _park_advance(self, when: int) -> None:
        """Time is about to advance to ``when`` (a real event is due):
        record a marker, and push the sentinels of the groups that step
        there."""
        log = self._park_log
        log.append((when, next(self._seq)))
        if len(log) > 256:
            del log[:bisect.bisect_left(log, (when - 8 * self._park_window - 1,))]
        self.now = when
        for mod, residues in self._park_index.items():
            for group in residues.get(when % mod, ()):
                if group.due != when:
                    group.due = when
                    runs = group.runs
                    s = runs[0].members[0].prev_instant(when)
                    for run in runs:
                        self._sentinel(run, when, s)

    def _park_settle(self, through_until: bool) -> None:
        """Run exit: settle every parked loop and mark the boundary, so
        entries pushed from here on order after its steps so far.  At
        ``until`` every step due there has been taken."""
        marker = next(self._seq)
        for park in self._parked:
            park.settle(self.now if through_until else self._park_acc(park))
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
        step = self._step
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
                if fn is step:  # a sentinel: no event
                    fn(*entry[2])
                    entry[2] = None
                    entry[3] = None
                    entry_pool.append(entry)
                    continue
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
