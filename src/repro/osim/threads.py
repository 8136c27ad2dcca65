"""Kernel/user threads and POSIX-style synchronization (Section 3.3).

The programming interface deliberately reuses standard thread
synchronization instead of inventing an event model: endpoints sensitize
condition variables to state transitions and threads wait on them.  This
module provides the simulated equivalents — :class:`Thread` (a body
generator bound to a host CPU), :class:`Mutex` and :class:`CondVar`.

A thread body is a generator function receiving the :class:`Thread`; it
consumes CPU with ``yield from thr.compute(ns)`` and blocks with
``yield event`` / ``yield from cv.wait_with(mutex)``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from ..hw.host import Cpu
from ..sim.core import Event, Interrupted, Park, SimError, Simulator

__all__ = ["Thread", "Spin", "Mutex", "CondVar"]

_thread_ids = itertools.count(1)


class Thread:
    """A schedulable thread on one node's CPU."""

    def __init__(
        self,
        sim: Simulator,
        cpu: Cpu,
        body: Callable[["Thread"], Generator],
        name: str = "",
    ):
        self.sim = sim
        self.cpu = cpu
        self.tid = next(_thread_ids)
        self.name = name or f"thread{self.tid}"
        #: accumulated CPU time (filled in by the scheduler; see cpu_ns)
        self._cpu_ns = 0
        #: the Spin this thread is parked in, if any (DESIGN §16)
        self._spin: Optional[Spin] = None
        #: set while the thread is suspended by a fault injector (chaos
        #: testing): the thread parks at its next compute/block point and
        #: stays off-CPU until :meth:`resume`
        self._pause_ev: Optional[Event] = None
        self.proc = sim.spawn(self._run(body), name=self.name)

    def _run(self, body: Callable[["Thread"], Generator]) -> Generator:
        try:
            result = yield from body(self)
        except Interrupted as intr:
            # An uncaught interrupt is a clean cancellation (e.g. process
            # termination), not an error.
            result = intr.cause
        finally:
            # A finished (or failed) thread must not keep the CPU lease.
            self.cpu.release_lease(self)
        return result

    @property
    def done(self):
        return self.proc.done

    @property
    def cpu_ns(self) -> int:
        """Accumulated CPU time (a parked spin loop's polls included)."""
        if self._spin is not None:
            self._spin.settle_now()
        return self._cpu_ns

    @property
    def finished(self) -> bool:
        return self.proc.finished

    @property
    def result(self) -> Any:
        return self.proc.result

    # ------------------------------------------------------------ suspension
    @property
    def paused(self) -> bool:
        return self._pause_ev is not None

    def pause(self) -> None:
        """Suspend the thread at its next compute/block point (chaos fault:
        a stalled receiver that stops polling, Section 3.2 pressure)."""
        if self._pause_ev is None and not self.finished:
            self._pause_ev = Event(self.sim, name=f"{self.name}.pause")
            if self._spin is not None:
                self._spin.wake()

    def resume(self) -> None:
        """Release a paused thread; it re-contends for the CPU."""
        ev, self._pause_ev = self._pause_ev, None
        if ev is not None and not ev.triggered:
            ev.trigger(None)

    def _pause_gate(self) -> Generator:
        """Park off-CPU while paused (re-checks: pause can nest/repeat)."""
        while self._pause_ev is not None:
            tr = self.sim.trace
            if tr.enabled:
                tr.emit("thr.block", self.cpu.node_id, thread=self.name, paused=True)
            self.cpu.release_lease(self)
            yield self._pause_ev
            if tr.enabled:
                tr.emit("thr.wake", self.cpu.node_id, thread=self.name, paused=True)

    def compute(self, ns: int) -> Generator:
        """Consume CPU time (sliced and preemptible by the quantum)."""
        if self._pause_ev is not None:
            yield from self._pause_gate()
        if ns <= 0:
            return
        # Single-slice fast path: the lease holder consuming less than a
        # slice needs none of Cpu.compute's acquire/loop machinery — the
        # dominant case for per-poll touch costs.  Scheduling decisions
        # still go through Cpu._should_yield/_handoff_next.
        cpu = self.cpu
        if cpu._holder is self and ns <= cpu.max_slice_ns and ns <= cpu._expiry - self.sim.now:
            cpu._in_slice = True
            yield self.sim.timeout(ns)
            self._slice_end(ns)
            return
        yield from cpu.compute(ns, owner=self)

    def _slice_begin(self, ns: int) -> Optional[Any]:
        """Fast-path entry for single-yield computes on hot call sites.

        When the caller can complete ``ns`` inside the current lease slice
        (the dominant case for per-poll touch costs), returns the pooled
        timeout to yield — the caller must call :meth:`_slice_end` right
        after the yield.  Returns None when the full :meth:`compute` path
        is required (paused, zero cost, not the leaseholder, slice split).
        Semantically identical to ``yield from thr.compute(ns)``; it only
        skips the generator frame.
        """
        cpu = self.cpu
        if (self._pause_ev is not None or ns <= 0 or cpu._holder is not self
                or ns > cpu.max_slice_ns or ns > cpu._expiry - self.sim.now):
            return None
        cpu._in_slice = True
        return self.sim.timeout(ns)

    def _slice_end(self, ns: int) -> None:
        """Close out a fast-path slice: accounting + scheduling decision
        (the inline equivalent of ``Cpu._should_yield(0)`` + handoff)."""
        cpu = self.cpu
        cpu._in_slice = False
        cpu._busy_ns += ns
        self._cpu_ns += ns
        if cpu._hi_queue or (cpu._queue and self.sim.now >= cpu._expiry):
            cpu._holder = None
            cpu._handoff_next()

    # ---------------------------------------------------------- spin elision
    def park_spin(self, poll_ns: int, idle_ns: int, on_iters: Callable[[int], None],
                  wakers: tuple = ()) -> Optional["Spin"]:
        """A :class:`Spin` for a poll-then-idle loop about to start an
        iteration, or None when the loop cannot be parked here: the
        thread must hold the CPU lease with nobody queued behind it, be
        unpaused and untraced, and both costs must fit one slice."""
        cpu = self.cpu
        if (self._pause_ev is not None or cpu._holder is not self or cpu._queue
                or cpu._hi_queue or self.sim.trace.enabled
                or not 0 < poll_ns <= cpu.max_slice_ns
                or not 0 < idle_ns <= cpu.max_slice_ns):
            return None
        return Spin(self, poll_ns, idle_ns, on_iters, wakers)

    def finish_slice(self, piece: int, rest: int) -> Generator:
        """Continue a woken :class:`Spin` step: close the slice piece that
        just ended, then compute what is left of a slice split at
        quantum expiry — exactly what ``Cpu.compute`` does between two
        pieces of one computation."""
        self._slice_end(piece)
        if rest:
            yield from self.cpu.compute(rest, owner=self)

    def block(self, waitable: Any) -> Generator:
        """Wait off-CPU: release the scheduler lease, then wait.

        All blocking waits inside thread bodies should go through this (or
        :meth:`sleep`) so other runnable threads get the CPU immediately
        rather than at lease expiry.
        """
        tr = self.sim.trace
        if tr.enabled:
            tr.emit("thr.block", self.cpu.node_id, thread=self.name)
        self.cpu.release_lease(self)
        result = yield waitable
        if self._pause_ev is not None:
            yield from self._pause_gate()
        if tr.enabled:
            tr.emit("thr.wake", self.cpu.node_id, thread=self.name)
        return result

    def sleep(self, ns: int) -> Generator:
        """Block off-CPU for ``ns``."""
        yield from self.block(self.sim.timeout(ns))

    def interrupt(self, cause: Any = None) -> None:
        self.proc.interrupt(cause)

    def __repr__(self) -> str:
        return f"<Thread {self.name}>"


class Spin(Park):
    """A thread parked in a poll-then-idle spin loop (DESIGN.md §16).

    The loop it replaces runs iterations of two computations on the CPU
    lease — a poll of ``poll_ns`` then an idle spin of ``idle_ns`` —
    starting at ``origin``.  While nothing it reads changes, its
    timeline is closed form: iteration ``n`` polls over
    ``[origin + nP, origin + nP + poll_ns)`` and idles until
    ``origin + (n+1)P`` (``P = poll_ns + idle_ns``); a computation that
    crosses the lease's quantum expiry is split there and the lease
    renewed (``Cpu.compute`` with nobody queued).  ``settle`` charges the
    CPU time of every finished slice piece to ``Cpu.busy_ns`` and
    ``Thread.cpu_ns`` and hands the number of iterations begun to
    ``on_iters``; the first is begun at the park itself.

    The resume value is ``(phase, piece, rest)``: the step is the poll
    (``POLL``) or the idle spin (``IDLE``), the slice piece ending at
    the wake-up is ``piece`` ns long, and ``rest`` ns of a split
    computation remain — see :meth:`Thread.finish_slice`.
    """

    __slots__ = ("thr", "cpu", "origin", "window", "poll_ns", "idle_ns", "period",
                 "expiry", "quantum", "acc", "acc_last", "on_iters", "wakers")

    POLL, IDLE = 0, 1

    def __init__(self, thr: Thread, poll_ns: int, idle_ns: int,
                 on_iters: Callable[[int], None], wakers: tuple = ()):
        super().__init__(thr.sim)
        cpu = thr.cpu
        now = thr.sim.now
        self.thr = thr
        self.cpu = cpu
        self.origin = now
        self.poll_ns = poll_ns
        self.idle_ns = idle_ns
        self.period = poll_ns + idle_ns
        self.window = max(poll_ns, idle_ns)
        self.quantum = cpu.quantum_ns
        # a lease already expired is renewed by the first computation
        self.expiry = cpu._expiry if cpu._expiry > now else now + cpu.quantum_ns
        #: settle watermark: every instant <= acc is accounted
        self.acc = now
        #: the last instant <= acc (CPU time is charged up to it)
        self.acc_last = now
        self.on_iters = on_iters
        #: objects whose ``waker`` slot points here while parked
        self.wakers = wakers

    def _attach(self) -> None:
        thr, cpu = self.thr, self.cpu
        thr._spin = self
        cpu._spin = self
        for w in self.wakers:
            w.waker = self
        cpu._expiry = self.expiry
        cpu._in_slice = True
        self.on_iters(1)

    def _detach(self) -> None:
        self.thr._spin = None
        self.cpu._spin = None
        for w in self.wakers:
            if w.waker is self:
                w.waker = None

    def keys(self):
        p, o = self.period, self.origin
        return ((p, o % p), (p, (o + self.poll_ns) % p),
                (self.quantum, self.expiry % self.quantum))

    def schedule(self):
        q, p, o = self.quantum, self.period, self.origin
        if self.poll_ns == self.idle_ns:  # the instants are every poll_ns
            return (self.poll_ns, o % self.poll_ns, q, self.expiry % q)
        return (self.poll_ns, p, o % p, q, self.expiry % q)

    def _expiry_after(self, t: int) -> int:
        """The lease expiry in force just after instant ``t``."""
        e = self.expiry
        if t < e:
            return e
        return e + ((t - e) // self.quantum + 1) * self.quantum

    def last_instant(self, t: int) -> int:
        o = self.origin
        n, r = divmod(t - o, self.period)
        last = o + n * self.period + (self.poll_ns if r >= self.poll_ns else 0)
        e = self.expiry
        if t >= e:
            split = e + (t - e) // self.quantum * self.quantum
            if split > last:
                return split
        return last

    def prev_instant(self, t: int) -> int:
        return self.last_instant(t - 1)

    def settle(self, t: int) -> None:
        acc = self.acc
        if t <= acc:
            return
        last = self.last_instant(t)
        charge = last - self.acc_last
        if charge:
            self.cpu._busy_ns += charge
            self.thr._cpu_ns += charge
        o, p = self.origin, self.period
        begun = (t - o) // p - (acc - o) // p
        if begun:
            self.on_iters(begun)
        self.cpu._expiry = self._expiry_after(t)
        self.acc = t
        self.acc_last = last

    def current(self):
        acc, o, p = self.acc, self.origin, self.period
        n, r = divmod(acc - o, p)
        if r < self.poll_ns:
            phase, start, ns = Spin.POLL, o + n * p, self.poll_ns
        else:
            phase, start, ns = Spin.IDLE, o + n * p + self.poll_ns, self.idle_ns
        end = start + ns
        split = self._expiry_after(acc)
        if start < split - self.quantum < end:  # second piece of a split
            split -= self.quantum
            return split, end, (phase, end - split, 0)
        if start < split < end:  # first piece of a split
            return start, split, (phase, split - start, end - split)
        return start, end, (phase, ns, 0)


class Mutex:
    """FIFO mutex with owner tracking."""

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._owner: Optional[Thread] = None
        self._waiters: Deque[tuple[Event, Thread]] = deque()

    @property
    def locked(self) -> bool:
        return self._owner is not None

    def acquire(self, thread: Thread) -> Event:
        ev = Event(self.sim, name=f"{self.name}.acq")
        if self._owner is None:
            self._owner = thread
            ev.trigger(None)
        else:
            self._waiters.append((ev, thread))
        return ev

    def release(self, thread: Thread) -> None:
        if self._owner is not thread:
            raise SimError(f"{thread} releasing {self.name} owned by {self._owner}")
        if self._waiters:
            ev, nxt = self._waiters.popleft()
            self._owner = nxt
            ev.trigger(None)
        else:
            self._owner = None


class CondVar:
    """Condition variable; signals wake waiters in FIFO order."""

    def __init__(self, sim: Simulator, name: str = "cv"):
        self.sim = sim
        self.name = name
        self._waiters: Deque[Event] = deque()

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        """Bare wait (no mutex): yield the returned event."""
        ev = Event(self.sim, name=f"{self.name}.wait")
        self._waiters.append(ev)
        return ev

    def wait_with(self, mutex: Mutex, thread: Thread) -> Generator:
        """Atomically release ``mutex``, wait, and reacquire."""
        ev = self.wait()
        mutex.release(thread)
        yield from thread.block(ev)
        yield mutex.acquire(thread)

    def signal(self, value: Any = None) -> None:
        if self._waiters:
            self._waiters.popleft().trigger(value)

    def broadcast(self, value: Any = None) -> None:
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.trigger(value)
