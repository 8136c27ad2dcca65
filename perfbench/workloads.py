"""The three paper-artifact workloads the benchmark times.

Each workload drives the same public API as the figure harness it stands
for, split at the point where set-up ends and the timed phase begins:

* ``logp``       -- Figure 3, ``repro.bench.logp.measure_am``;
* ``overcommit`` -- Figure 6 ST-8, ``repro.apps.clientserver.run_contention``
  with 10 clients on an 8-frame server NI;
* ``npb_is``     -- Figure 5 NAS IS at 16 ranks, ``repro.apps.npb.run_npb``.

``selftest.py`` shows that, at the default seed, the simulated results of
each workload equal those of its entry point bit for bit.

A workload is three functions: ``setup(seed, engine)`` builds the cluster
and its virtual networks or MPI world and returns a :class:`Built`;
``run(built)`` is the timed phase; ``results(built)`` returns the
simulated results of the figure.  :func:`counts` reads the exact per-layer
counts from the stats objects the program exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.am.bundle import Bundle
from repro.am.vnet import parallel_vnet, star_vnet
from repro.apps.npb import NPB_SPECS, _comp_iter_seconds
from repro.bench.logp import PAPER_AM, _measure
from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.lib.mpi import build_world
from repro.myrinet.packet import NackReason
from repro.sim.core import ms, seconds

#: the seed every entry point uses when none is given
DEFAULT_SEED = ClusterConfig().seed

#: run sizes; each is a fixed amount of simulated work
SIZES = {
    "logp": {"hosts": 4, "pingpongs": 600, "flood_msgs": 6000},
    "overcommit": {"clients": 10, "frames": 8, "warmup_ms": 10.0,
                   "duration_ms": 30.0, "handler_ns": 8_600},
    "npb_is": {"ranks": 16, "iters_sim": 1},
}

#: Figure 6 server peak (msgs/s) and the paper's Figure 3 round trip (us)
PEAK_MSGS_S = 78_000.0
PAPER_AM_RTT_US = 24.1


@dataclass
class Built:
    """A set-up cluster and the handles its timed phase and checks need."""

    cluster: Cluster
    #: every AM endpoint of the workload (their AmStats are summed)
    endpoints: list
    #: MPI communicators (npb_is only)
    comms: list = field(default_factory=list)
    #: workload-specific state filled in by setup and run
    state: dict = field(default_factory=dict)


def _config(seed: int, engine: Optional[str], **kw) -> ClusterConfig:
    cfg = ClusterConfig(seed=seed, **kw)
    return cfg.with_(engine=engine) if engine else cfg


# ------------------------------------------------------------------ logp
def _logp_setup(seed: int, engine: Optional[str]) -> Built:
    s = SIZES["logp"]
    cluster = Cluster(_config(seed, engine, num_hosts=s["hosts"]))
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    return Built(cluster, [vnet[0], vnet[1]])


def _logp_run(b: Built) -> None:
    s = SIZES["logp"]
    cluster, sim = b.cluster, b.cluster.sim
    ep0, ep1 = b.endpoints
    # endpoint page-in warm-up, as measure_am does before measuring
    cluster.run_process(cluster.node(0).driver.write_fault(ep0.state), "w0")
    cluster.run_process(cluster.node(1).driver.write_fault(ep1.state), "w1")
    cluster.run(until=sim.now + ms(30))

    def handler(token):
        token.reply(None)

    send_ep = {
        "request": lambda thr, _dst, nbytes: ep0.request(thr, 1, handler, nbytes=nbytes),
        "poll": lambda thr, limit: ep0.poll(thr, limit=limit),
        "has_reply": lambda: bool(ep0.state.recv_replies),
        "idle": lambda: not ep0._outstanding,
    }
    recv_ep = {"poll": lambda thr, limit: ep1.poll(thr, limit=limit)}
    p0 = cluster.node(0).start_process("logp-send")
    p1 = cluster.node(1).start_process("logp-recv")
    b.state["logp"] = _measure(
        "AM", send_ep, recv_ep,
        lambda body: p0.spawn_thread(body, "sender"),
        lambda body: p1.spawn_thread(body, "receiver"),
        sim, s["pingpongs"], s["flood_msgs"],
    )


def _logp_results(b: Built) -> dict:
    r = b.state["logp"]
    return {"os_us": r.os_us, "or_us": r.or_us, "l_us": r.l_us,
            "g_us": r.g_us, "rtt_us": r.rtt_us}


# ------------------------------------------------------------ overcommit
def _overcommit_setup(seed: int, engine: Optional[str]) -> Built:
    s = SIZES["overcommit"]
    n = s["clients"]
    cluster = Cluster(_config(seed, engine, num_hosts=n + 1,
                              endpoint_frames=s["frames"]))
    client_nodes = list(range(1, n + 1))
    servers, clients = cluster.run_process(
        star_vnet(cluster, 0, client_nodes, shared_server_ep=False), "setup")
    for sep in servers:
        sep.handler_cost_ns = s["handler_ns"]

    counts = [0] * n
    stop = {"flag": False}

    def make_handler(idx: int):
        def handler(token):
            counts[idx] += 1  # auto credit reply follows

        return handler

    handlers = [make_handler(i) for i in range(n)]
    for i, cep in enumerate(clients):
        proc = cluster.node(client_nodes[i]).start_process(f"client{i}")

        def client_body(thr, cep=cep, i=i):
            while not stop["flag"]:
                yield from cep.request(thr, 0, handlers[i], nbytes=0)
                yield from cep.poll(thr, limit=4)

        proc.spawn_thread(client_body, name=f"client{i}")

    bundle = Bundle(servers)

    def st_body(thr):
        while not stop["flag"]:
            got = yield from bundle.poll_all(thr, limit=8)
            if got == 0:
                yield from thr.compute(200)

    cluster.node(0).start_process("server").spawn_thread(st_body, name="server-st")
    return Built(cluster, list(servers) + list(clients),
                 state={"counts": counts, "stop": stop})


def _overcommit_run(b: Built) -> None:
    s = SIZES["overcommit"]
    sim, server = b.cluster.sim, b.cluster.node(0)
    counts, nic = b.state["counts"], server.nic
    b.cluster.run(until=sim.now + ms(s["warmup_ms"]))
    b.state["snap"] = (
        list(counts), server.driver.stats.remaps, server.cpu.busy_ns,
        nic.stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0),
        nic.stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0), sim.now,
    )
    b.cluster.run(until=sim.now + ms(s["duration_ms"]))
    b.state["stop"]["flag"] = True


def _overcommit_results(b: Built) -> dict:
    sim, server = b.cluster.sim, b.cluster.node(0)
    counts, nic = b.state["counts"], server.nic
    snap_counts, snap_remaps, snap_cpu, snap_over, snap_notres, t0 = b.state["snap"]
    elapsed_s = (sim.now - t0) / 1e9
    per_client = [(c - c0) / elapsed_s for c, c0 in zip(counts, snap_counts)]
    return {
        "per_client_msgs_s": per_client,
        "aggregate_msgs_s": sum(per_client),
        "remaps_per_s": (server.driver.stats.remaps - snap_remaps) / elapsed_s,
        "overrun_nacks": nic.stats.nacks_sent.get(NackReason.RECV_OVERRUN, 0) - snap_over,
        "not_resident_nacks": nic.stats.nacks_sent.get(NackReason.NOT_RESIDENT, 0) - snap_notres,
        "server_cpu_util": (server.cpu.busy_ns - snap_cpu) / (sim.now - t0),
        "sim_ns": sim.now,
        "events_dispatched": sim.events_dispatched,
    }


# ---------------------------------------------------------------- npb_is
def _npb_setup(seed: int, engine: Optional[str]) -> Built:
    p = SIZES["npb_is"]["ranks"]
    cluster = Cluster(_config(seed, engine).with_(num_hosts=p))
    world = cluster.run_process(build_world(cluster, list(range(p))), "npb")
    spec, sim = NPB_SPECS["is"], cluster.sim
    iter_times: list[int] = []

    def main(thr, comm):
        yield from comm.barrier(thr)
        for _ in range(SIZES["npb_is"]["iters_sim"]):
            t0 = sim.now
            yield from spec.comm_iter(comm, thr, p)
            yield from comm.barrier(thr)
            if comm.rank == 0:
                iter_times.append(sim.now - t0)
        return comm.comm_ns

    threads = world.spawn(main, name="npb-is")
    return Built(cluster, [c.endpoint for c in world.comms], list(world.comms),
                 state={"threads": threads, "iter_times": iter_times})


def _npb_run(b: Built) -> None:
    b.cluster.run(until=b.cluster.sim.now + seconds(120))


def _npb_results(b: Built) -> dict:
    if not all(t.finished for t in b.state["threads"]):
        raise RuntimeError("npb_is: a rank thread did not finish")
    spec, p = NPB_SPECS["is"], SIZES["npb_is"]["ranks"]
    iter_times = b.state["iter_times"]
    comp_iter = _comp_iter_seconds(spec, p)
    comm_iter_s = sum(iter_times) / len(iter_times) / 1e9
    time_s = spec.iterations * (comp_iter + comm_iter_s)
    return {
        "comp_iter_s": comp_iter,
        "comm_iter_s": comm_iter_s,
        "time_s": time_s,
        "speedup": spec.t1_seconds / time_s,
        "comm_fraction": comm_iter_s / (comp_iter + comm_iter_s),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Optional[str]], Built]
    run: Callable[[Built], None]
    results: Callable[[Built], dict]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("logp", _logp_setup, _logp_run, _logp_results),
        Workload("overcommit", _overcommit_setup, _overcommit_run, _overcommit_results),
        Workload("npb_is", _npb_setup, _npb_run, _npb_results),
    )
}


# ------------------------------------------------------------ counts
def counts(b: Built) -> dict[str, int]:
    """Exact per-layer counters, summed over the cluster; diff two snapshots."""
    cl = b.cluster
    nodes = cl.nodes
    am = [ep.stats for ep in b.endpoints]
    nic = [n.nic.stats for n in nodes]
    drv = [n.driver.stats for n in nodes]
    return {
        "sim.events": cl.sim.events_dispatched,
        "sim.now_ns": cl.sim.now,
        "am.requests_sent": sum(s.requests_sent for s in am),
        "am.requests_handled": sum(s.requests_handled for s in am),
        "am.polls": sum(s.polls for s in am),
        "am.credit_stalls": sum(s.credit_stalls for s in am),
        "am.undeliverable": sum(s.undeliverable for s in am),
        "nic.data_sent": sum(s.data_sent for s in nic),
        "nic.retransmissions": sum(s.retransmissions for s in nic),
        "nic.returns": sum(s.returns for s in nic),
        "nic.nacks_sent": sum(sum(s.nacks_sent.values()) for s in nic),
        "segdriver.remaps": sum(s.remaps for s in drv),
        "segdriver.evictions": sum(s.evictions for s in drv),
        "myrinet.sent": cl.network.stats.sent,
        "myrinet.express_delivered": cl.network.express.delivered,
        "myrinet.express_revoked": cl.network.express.revoked,
        "hw.sbus_busy_ns": sum(n.nic.sbus.busy_ns for n in nodes),
        "hw.cpu_busy_ns": sum(n.cpu.busy_ns for n in nodes),
        "lib.msgs_sent": sum(c.msgs_sent for c in b.comms),
    }


def delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after}


# ------------------------------------------------------------ checks
#: simulated results at DEFAULT_SEED and the sizes above; any change to the
#: simulated program shows here first
PINNED: dict[str, dict[str, Any]] = {
    "logp": {"os_us": 2.4, "or_us": 2.4, "l_us": 7.6,
             "g_us": 12.855395555555555, "rtt_us": 24.8},
    "overcommit": {
        "aggregate_msgs_s": 57100.000000000015,
        "per_client_msgs_s": [
            9266.666666666668, 8266.666666666668, 7833.333333333334, 7700.0,
            6133.333333333334, 5333.333333333334, 3766.666666666667,
            3733.3333333333335, 2933.3333333333335, 2133.3333333333335],
        "remaps_per_s": 366.6666666666667,
        "overrun_nacks": 0,
        "not_resident_nacks": 1048,
    },
    "npb_is": {"comm_iter_s": 0.0830144},
}


def check(workload: str, results: dict, seed: int) -> list[str]:
    """The paper bands the repo asserts, plus the pinned values at the
    default seed.  Returns the list of failures (empty when correct)."""
    r = results
    if workload == "logp":
        # benchmarks/test_fig3_logp.py
        bands = [(f"|{k} - {PAPER_AM[k]}| < {tol}", abs(r[k] - PAPER_AM[k]) < tol)
                 for k, tol in (("os_us", 0.5), ("or_us", 0.5), ("l_us", 1.5), ("g_us", 1.5))]
    elif workload == "overcommit":
        # benchmarks/test_fig6_small_contention.py, ST-8 remapping regime
        bands = [("100 <= remaps_per_s <= 500", 100 <= r["remaps_per_s"] <= 500),
                 ("aggregate_msgs_s >= 0.4 x 78K", r["aggregate_msgs_s"] >= 0.4 * PEAK_MSGS_S)]
    elif workload == "npb_is":
        # benchmarks/test_fig5_npb.py, IS is bisection limited
        bands = [("speedup < 12", r["speedup"] < 12.0),
                 ("comm_fraction > 0.3", r["comm_fraction"] > 0.3)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    f = [f"band {name} fails" for name, ok in bands if not ok]
    if seed == DEFAULT_SEED:
        for key, want in PINNED[workload].items():
            if r[key] != want:
                f.append(f"{key}={r[key]!r}, pinned {want!r}")
    return f


def headline(workload: str, r: dict) -> list[str]:
    """Each headline simulated number beside the paper's value."""
    if workload == "logp":
        return [
            f"Os  {r['os_us']:.3f} us  (paper {PAPER_AM['os_us']})",
            f"Or  {r['or_us']:.3f} us  (paper {PAPER_AM['or_us']})",
            f"L   {r['l_us']:.3f} us  (paper {PAPER_AM['l_us']})",
            f"g   {r['g_us']:.3f} us  (paper {PAPER_AM['g_us']})",
            f"RTT {r['rtt_us']:.3f} us  (paper {PAPER_AM_RTT_US})",
        ]
    if workload == "overcommit":
        return [
            f"aggregate {r['aggregate_msgs_s']:,.0f} msg/s = "
            f"{r['aggregate_msgs_s'] / PEAK_MSGS_S:.0%} of 78K peak  (paper 50-75%)",
            f"remaps {r['remaps_per_s']:.1f}/s  (paper 200-300/s)",
            f"NACKs overrun {r['overrun_nacks']}, not resident {r['not_resident_nacks']}",
        ]
    return [
        f"IS speedup at 16 {r['speedup']:.3f}  (paper: bisection limited, below linear)",
        f"comm fraction {r['comm_fraction']:.3f}  (paper: communication dominated)",
        f"comm per iteration {r['comm_iter_s'] * 1e3:.4f} ms (simulated)",
    ]
