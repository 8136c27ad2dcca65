"""Spin elision (DESIGN.md §16) simulates exactly what the spin loops do.

Every cell runs with ``spin_elision`` off (the full-fidelity loop, one
kernel event per poll) and on, on both the optimized and the reference
kernel.  Every observable must be identical: all ``AmStats`` fields,
``Cpu.busy_ns``, ``Thread.cpu_ns``, ``NicStats``, ``DriverStats``, the
per-client counts, the delivery timelines and ``sim.now``.  Only the
dispatched event count may differ, and elision must lower it.

The cells: an ST-8 contention cell (Figure 6), a 4-rank MPI cell heavy in
``Comm.recv``, and the LogP flood; then one targeted case per wake
condition, ``run(until=)`` landing mid-spin, and a constructed
same-instant tie between a wake-up and a poll end, in both push orders.
"""

from dataclasses import asdict

import pytest

from repro.am.bundle import Bundle
from repro.am.errors import EndpointFreedError
from repro.am.vnet import parallel_vnet, star_vnet
from repro.apps.clientserver import ContentionConfig, run_contention
from repro.bench.logp import _measure
from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.lib.mpi import build_world
from repro.osim.threads import Spin, Thread
from repro.hw.host import Cpu
from repro.sim import ReferenceSimulator, Simulator
from repro.sim.core import ms, us

ENGINES = ("sequential", "reference")


def _snapshot(cluster, endpoints, threads, log):
    sim = cluster.sim
    return {
        "now": sim.now,
        "am": [asdict(ep.stats) for ep in endpoints],
        "cpu": [(n.cpu.busy_ns, n.cpu.switches) for n in cluster.nodes],
        "thr": [t.cpu_ns for t in threads],
        "nic": [repr(n.nic.stats) for n in cluster.nodes],
        "drv": [repr(n.driver.stats) for n in cluster.nodes],
        "log": list(log),
    }


def _both(cell, **kw):
    """Run ``cell`` elision off/on on both kernels; check the contract."""
    runs = {}
    for engine in ENGINES:
        for elide in (False, True):
            runs[engine, elide] = cell(engine, elide, **kw)
    base_state, base_events = runs["sequential", False]
    for (engine, elide), (state, events) in runs.items():
        assert state == base_state, f"{engine} elision={elide} diverged"
        if elide:
            assert events < runs[engine, False][1]
    # both kernels elide the same events
    assert runs["reference", True][1] == runs["sequential", True][1]
    return runs


def _cfg(engine, elide, **kw):
    return ClusterConfig(spin_elision=elide, engine=engine, **kw)


# ------------------------------------------------------------------ cells
def _st8_cell(engine, elide, clients=10, frames=8, chunks=(ms(3), ms(5))):
    cluster = Cluster(_cfg(engine, elide, num_hosts=clients + 1, endpoint_frames=frames))
    sim = cluster.sim
    servers, cl_eps = cluster.run_process(
        star_vnet(cluster, 0, list(range(1, clients + 1)), shared_server_ep=False), "setup")
    for sep in servers:
        sep.handler_cost_ns = 8_600
    log, counts, stop, threads = [], [0] * clients, [False], []

    def make_handler(i):
        def handler(token):
            counts[i] += 1
            log.append(("h", sim.now, i))
        return handler

    for i, cep in enumerate(cl_eps):
        h = make_handler(i)

        def body(thr, cep=cep, h=h, i=i):
            while not stop[0]:
                yield from cep.request(thr, 0, h, nbytes=0)
                log.append(("r", sim.now, i))
                yield from cep.poll(thr, limit=4)

        threads.append(cluster.node(i + 1).start_process(f"c{i}").spawn_thread(body))
    bundle = Bundle(servers)

    def st_body(thr):
        while not stop[0]:
            got = yield from bundle.poll_all(thr, limit=8)
            if got == 0:
                yield from thr.compute(200)

    threads.append(cluster.node(0).start_process("srv").spawn_thread(st_body))
    snaps = []
    for dt in chunks:
        cluster.run(until=sim.now + dt)
        snaps.append(_snapshot(cluster, servers + cl_eps, threads, log))
    snaps.append(list(counts))
    return snaps, sim.events_dispatched


def test_st8_contention_cell():
    runs = _both(_st8_cell)
    assert runs["sequential", True][1] < runs["sequential", False][1] / 4


def _contention_cell(engine, elide, mode):
    # the Figure 6 harness itself: its run(until=) calls end mid-spin
    ccfg = ContentionConfig(nclients=3, mode=mode, warmup_ms=4.0, duration_ms=3.0,
                            base=ClusterConfig(spin_elision=elide))
    res = asdict(run_contention(ccfg, engine=engine))
    events = res.pop("events_dispatched")
    res.pop("config")
    return res, events


@pytest.mark.parametrize("mode", ["one_vn", "st", "mt"])
def test_figure6_harness(mode):
    _both(_contention_cell, mode=mode)


def _mpi_cell(engine, elide, ranks=4):
    cluster = Cluster(_cfg(engine, elide, num_hosts=ranks))
    sim = cluster.sim
    world = cluster.run_process(build_world(cluster, list(range(ranks))), "mpi")
    log = []

    def main(thr, comm):
        for it in range(3):
            if comm.rank == it % ranks:
                yield from thr.compute(us(40))  # a late rank: the others spin
            out = yield from comm.alltoall(thr, [comm.rank] * ranks, 2048)
            log.append(("a2a", sim.now, comm.rank, tuple(out)))
            right, left = (comm.rank + 1) % ranks, (comm.rank - 1) % ranks
            got = yield from comm.sendrecv(thr, right, left, ("ring", it), 64, comm.rank)
            log.append(("ring", sim.now, comm.rank, got[0]))
        yield from comm.barrier(thr)
        return comm.comm_ns

    threads = world.spawn(main)
    cluster.run(until=sim.now + ms(50))
    assert all(t.finished for t in threads)
    eps = [c.endpoint for c in world.comms]
    return (_snapshot(cluster, eps, threads, log),
            [t.result for t in threads]), sim.events_dispatched


def test_mpi_recv_cell():
    runs = _both(_mpi_cell)
    assert runs["sequential", True][1] < runs["sequential", False][1]


def _alltoall_cell(engine, elide, ranks=12, bite=None):
    """NAS-IS-style small all-to-all: every rank spins in ``Comm.recv``
    in lockstep, so many parks of one schedule group step under one
    sentinel.  ``bite`` collects, in the elided run, the largest run a
    sentinel stepped and the largest run split by a wake that
    materialized a member with parked siblings on both sides of it."""
    cluster = Cluster(_cfg(engine, elide, num_hosts=ranks))
    sim = cluster.sim
    world = cluster.run_process(build_world(cluster, list(range(ranks))), "mpi")
    log = []

    def main(thr, comm):
        for it in range(3):
            out = yield from comm.alltoall(thr, [(comm.rank, it)] * ranks, 16)
            log.append(("a2a", sim.now, comm.rank, tuple(out)))
        yield from comm.barrier(thr)
        return comm.comm_ns

    if bite is not None and elide:
        step, unpark = sim._step, sim._unpark

        def spy_step(run):
            bite["run"] = max(bite.get("run", 0), len(run.members))
            step(run)

        def spy_unpark(park, materialize=True):
            members = park._run.members
            if materialize and members[0] is not park and members[-1] is not park:
                bite["split"] = max(bite.get("split", 0), len(members))
            unpark(park, materialize)

        sim._step, sim._unpark = spy_step, spy_unpark
    threads = world.spawn(main)
    cluster.run(until=sim.now + ms(50))
    assert all(t.finished for t in threads)
    eps = [c.endpoint for c in world.comms]
    return (_snapshot(cluster, eps, threads, log),
            [t.result for t in threads]), sim.events_dispatched


def test_lockstep_alltoall_cell():
    bite = {}
    _both(_alltoall_cell, bite=bite)
    # the cell bites: one sentinel steps a whole group at one instant,
    # and a materialized sibling splits a run as large
    assert bite["run"] >= 8
    assert bite["split"] >= 8


def _logp_cell(engine, elide):
    cluster = Cluster(_cfg(engine, elide, num_hosts=4))
    sim = cluster.sim
    ep0, ep1 = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    cluster.run_process(cluster.node(0).driver.write_fault(ep0.state), "w0")
    cluster.run_process(cluster.node(1).driver.write_fault(ep1.state), "w1")
    cluster.run(until=sim.now + ms(30))

    def handler(token):
        token.reply(None)

    threads = []
    send_ep = {
        "request": lambda thr, _d, nbytes: ep0.request(thr, 1, handler, nbytes=nbytes),
        "poll": lambda thr, limit: ep0.poll(thr, limit=limit),
        "has_reply": lambda: bool(ep0.state.recv_replies),
        "idle": lambda: not ep0._outstanding,
    }
    recv_ep = {"poll": lambda thr, limit: ep1.poll(thr, limit=limit)}
    p0 = cluster.node(0).start_process("send")
    p1 = cluster.node(1).start_process("recv")

    def spawn(proc):
        def go(body):
            thr = proc.spawn_thread(body)
            threads.append(thr)
            return thr
        return go

    res = _measure("AM", send_ep, recv_ep, spawn(p0), spawn(p1), sim, 40, 600)
    return (_snapshot(cluster, [ep0, ep1], threads, []), asdict(res)), sim.events_dispatched


def test_logp_flood_cell():
    runs = _both(_logp_cell)
    assert runs["sequential", True][1] < runs["sequential", False][1]
    assert runs["sequential", True][0][0]["am"][0]["credit_stalls"] > 0


# ----------------------------------------------------- targeted wake cases
def _pair_cell(engine, elide, perturb=None, chunk=None, horizon=ms(2), **cfg):
    """One client spinning on credits against a slow server."""
    kw = dict(num_hosts=2, user_credits=2)
    kw.update(cfg)
    cluster = Cluster(_cfg(engine, elide, **kw))
    sim = cluster.sim
    (sep,), (cep,) = cluster.run_process(star_vnet(cluster, 0, [1], shared_server_ep=False), "setup")
    sep.handler_cost_ns = 30_000
    # page both endpoints in first, as the LogP harness does
    cluster.run_process(cluster.node(0).driver.write_fault(sep.state), "w0")
    cluster.run_process(cluster.node(1).driver.write_fault(cep.state), "w1")
    cluster.run(until=sim.now + ms(5))
    log, stop = [], [False]

    def handler(token):
        log.append(("h", sim.now))

    cep.undeliverable_handler = lambda msg, reason: log.append(("u", sim.now, str(reason)))

    def client(thr):
        try:
            while not stop[0]:
                yield from cep.request(thr, 0, handler, nbytes=0)
                log.append(("r", sim.now))
        except EndpointFreedError:
            log.append(("freed", sim.now))
        return "done"

    def server(thr):
        try:
            while not stop[0]:
                got = yield from sep.poll(thr, limit=8)
                if got == 0:
                    yield from thr.compute(200)
        except EndpointFreedError:
            log.append(("server freed", sim.now))

    cthr = cluster.node(1).start_process("client").spawn_thread(client)
    sthr = cluster.node(0).start_process("server").spawn_thread(server)
    cthr.done._subscribe(lambda v, e: log.append(("exit", sim.now, repr(e))))
    t0 = sim.now
    if perturb is not None:
        perturb(cluster, sim, t0, cthr, cep, sep, log)
    snaps = []
    end = t0 + horizon
    while sim.now < end:
        cluster.run(until=min(end, sim.now + (chunk or horizon)))
        snaps.append(_snapshot(cluster, [cep, sep], [cthr, sthr], log))
    return snaps, sim.events_dispatched


def _at(sim, t, fn):
    sim.schedule(t - sim.now, fn)


def test_competing_user_thread_at_quantum_expiry():
    def perturb(cluster, sim, t0, cthr, cep, sep, log):
        node = cluster.node(1)

        def hog(thr):
            for _ in range(4):
                yield from thr.compute(us(70))
                log.append(("hog", sim.now))
                yield from thr.sleep(us(90))

        _at(sim, t0 + us(333), lambda: node.start_process("hog").spawn_thread(hog))

    _both(_pair_cell, perturb=perturb, cpu_quantum_ns=us(50))


def test_kernel_priority_preemption_mid_spin():
    def perturb(cluster, sim, t0, cthr, cep, sep, log):
        cpu = cluster.node(1).cpu

        def kwork():
            owner = object()
            yield from cpu.compute(us(7), owner=owner, priority=1)
            cpu.release_lease(owner)
            log.append(("kernel", sim.now))

        for k in range(3):
            _at(sim, t0 + us(211 + 397 * k), lambda: sim.spawn(kwork(), "kwork"))

    _both(_pair_cell, perturb=perturb)


def test_residency_flip_of_spinning_endpoint():
    def perturb(cluster, sim, t0, cthr, cep, sep, log):
        drv = cluster.node(1).driver
        for k in range(3):
            _at(sim, t0 + us(150 + 431 * k),
                lambda: log.append(("evict", sim.now, drv.force_evict(cep.state))))

    runs = _both(_pair_cell, perturb=perturb)
    assert any(e[0] == "evict" and e[2] for e in runs["sequential", True][0][-1]["log"])


def test_pause_resume_and_interrupt_of_parked_thread():
    def perturb(cluster, sim, t0, cthr, cep, sep, log):
        _at(sim, t0 + us(301), cthr.pause)
        _at(sim, t0 + us(505), cthr.resume)
        _at(sim, t0 + us(1207), lambda: cthr.interrupt("stop"))

    runs = _both(_pair_cell, perturb=perturb)
    assert any(e[0] == "exit" for e in runs["sequential", True][0][-1]["log"])


def test_endpoint_freed_mid_spin():
    def perturb(cluster, sim, t0, cthr, cep, sep, log):
        drv = cluster.node(1).driver
        _at(sim, t0 + us(719), lambda: sim.spawn(drv.free_endpoint(cep.state), "free"))

    runs = _both(_pair_cell, perturb=perturb)
    assert any(e[0] == "freed" for e in runs["sequential", True][0][-1]["log"])


def test_return_to_sender_credit_refund():
    def perturb(cluster, sim, t0, cthr, cep, sep, log):
        # retarget the client at an endpoint that does not exist: its
        # requests come back, and each return refunds a credit
        _at(sim, t0 + us(403), lambda: cep.state.map_translation(0, 0, 999, 0))

    runs = _both(_pair_cell, perturb=perturb, horizon=ms(4), dead_timeout_ms=1.0)
    last = runs["sequential", True][0][-1]
    assert last["am"][0]["undeliverable"] > 0


def test_run_until_lands_mid_spin():
    # counters read between runs must equal the full-fidelity loop's
    _both(_pair_cell, chunk=7_777, horizon=us(400))


# ----------------------------------------------------- same-instant ties
class _Box:
    """A minimal endpoint stand-in: a flag the toy loop polls."""

    waker = None

    def __init__(self):
        self.pending = False
        self.polls = 0


def _toy(sim_cls, elide, wake_at, early_push):
    """A toy poll(800)/idle(80) loop woken at exactly a poll end.

    The waking callback is pushed before the loop's own entry for that
    poll end (``early_push``) or after it; the loop must see the flag at
    that poll end in the first case and one iteration later otherwise.
    """
    sim = sim_cls()
    cpu = Cpu(sim, quantum_ns=10_000, name="cpu")
    box = _Box()
    seen = []

    def count(k):
        box.polls += k

    def body(thr):
        while not box.pending:
            spin = thr.park_spin(800, 80, count, (box,)) if elide else None
            if spin is None:
                box.polls += 1
                yield from thr.compute(800)
                if not box.pending:
                    yield from thr.compute(80)
                continue
            phase, piece, rest = yield spin
            yield from thr.finish_slice(piece, rest)
            if phase == Spin.POLL and not box.pending:
                yield from thr.compute(80)
        seen.append(sim.now)

    def wake():
        box.pending = True
        if box.waker is not None:
            box.waker.wake()

    if early_push:
        sim.schedule(wake_at, wake)
    thr = Thread(sim, cpu, body, name="toy")
    if not early_push:
        # pushed mid-poll, after the loop pushed its entry for wake_at
        sim.schedule(wake_at - 400, lambda: sim.schedule(400, wake))
    sim.run(until=wake_at + 5_000)
    return (seen, box.polls, cpu.busy_ns, thr.cpu_ns, sim.now), sim.events_dispatched


@pytest.mark.parametrize("early_push", [True, False])
@pytest.mark.parametrize("sim_cls", [Simulator, ReferenceSimulator])
def test_same_instant_tie_between_wake_and_poll_end(sim_cls, early_push):
    # the loop starts at t=0; poll ends are at 880k + 800; quantum
    # expiry splits the computation crossing every 10 us
    wake_at = 880 * 23 + 800
    off, e_off = _toy(sim_cls, False, wake_at, early_push)
    on, e_on = _toy(sim_cls, True, wake_at, early_push)
    assert on == off
    assert e_on < e_off
    # seen at that poll end, or at the next iteration start
    assert off[0] == [wake_at if early_push else wake_at + 80]
