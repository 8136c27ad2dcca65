"""Perf-regression harness for the event-kernel hot path.

Runs four canonical scenarios —

* **logp_pingpong**  — the Figure 3 request/reply cycle, back to back;
* **fig6_contention** — the Section 6.4 client/server thrash (OneVN);
* **chaos_smoke**    — one deterministic chaos run (mixed faults,
  pairwise workload) with the delivery-contract audit on;
* **net_burst**      — a network-heavy all-to-all burst on a 32-host
  fabric driving :class:`~repro.myrinet.network.Network` directly:
  staggered shift-permutation waves (mostly uncontended — express-path
  food) mixed with hotspot waves (everyone to host 0 — revocation and
  fallback pressure) and loopback self-sends;
* **calib_workloads** — the datacenter diversity shapes from
  :mod:`repro.calib.workloads` (incast, RPC fan-out, streaming
  pipeline) at reduced scale, digesting their express-invariant
  observables;

— and measures, for each, the kernel event throughput (events/s via
``Simulator.events_dispatched``), wall-clock time, and peak Python heap
(``tracemalloc``, on a reduced-scale pass so tracing overhead does not
pollute the throughput numbers).  Results land in ``BENCH_PERF.json``.

Correctness is checked against :class:`repro.sim.ReferenceSimulator`,
a kernel that keeps the pre-optimization generic scheduling paths (no
entry pool, no timeout free-list, no typed resume dispatch).  Both
kernels run the *same* library code, so under ``--reference`` each
scenario is replayed on both and must produce

* **bit-identical timeline digests** (SHA-256 over the normalized trace,
  for the traced scenarios) and identical end-state counters, and
* the **same number of dispatched kernel events** — the fast paths must
  not add or remove events, only make each one cheaper.

Because the event counts match, the optimized/reference events-per-sec
ratio is a machine-independent speedup figure; ``--check`` fails (exit
1) if that ratio has dropped more than 20% below the recorded baseline
(the committed ``BENCH_PERF.json``), which is how CI catches hot-path
regressions without trusting absolute wall-clock on shared runners.

The same oracle discipline covers the fabric's **express delivery
path** (``ClusterConfig.express_path``): every scenario is replayed
with the express path forced off and the mode-invariant end state
(delivery-timeline digests, ``NetworkStats``, simulated clock) must
match bit for bit — express elides kernel *events*, never observable
behaviour.  ``net_burst`` reports the express speedup as an
events-per-second figure (baseline event count over express wall), and
``--check`` applies the same >20%-regression rule to it.

Run as a module::

    PYTHONPATH=src python -m repro.bench.perf                 # measure
    PYTHONPATH=src python -m repro.bench.perf --reference     # + oracle
    PYTHONPATH=src python -m repro.bench.perf --check --out run.json  # CI gate

``--check`` refuses an ``--out`` that is its baseline: the run would
replace the record it is judged against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from ..am.vnet import parallel_vnet
from ..apps.clientserver import ContentionConfig, run_contention
from ..chaos import (ScheduleGenerator, chaos_config, reset_global_ids,
                     run_chaos, timeline_digest)
from ..cluster.builder import Cluster
from ..cluster.config import ClusterConfig
from ..myrinet.network import Network
from ..myrinet.packet import Packet, PacketType
from ..sim import ReferenceSimulator, Simulator, ms
from .reporting import print_table

__all__ = ["SCENARIOS", "Scale", "run_scenario", "run_suite", "check_baseline", "main"]

SCENARIOS = ("logp_pingpong", "fig6_contention", "chaos_smoke", "net_burst",
             "calib_workloads")

#: drop tolerated by --check before the gate fails (the >20% rule)
CHECK_TOLERANCE = 0.8


@dataclass(frozen=True)
class Scale:
    """Problem sizes for one harness pass."""

    pingpong_rounds: int = 600
    contention_warmup_ms: float = 40.0
    contention_duration_ms: float = 60.0
    chaos_duration_ns: int = 8_000_000
    burst_hosts: int = 32
    burst_waves: int = 60
    calib_rounds: int = 6
    shard_hosts_per_shard: int = 8
    shard_waves: int = 40

    def shrunk(self) -> "Scale":
        """A reduced-scale variant for the tracemalloc (peak-heap) pass."""
        return Scale(
            pingpong_rounds=max(50, self.pingpong_rounds // 5),
            contention_warmup_ms=self.contention_warmup_ms / 2,
            contention_duration_ms=max(10.0, self.contention_duration_ms / 3),
            chaos_duration_ns=max(2_000_000, self.chaos_duration_ns // 3),
            burst_hosts=self.burst_hosts,
            burst_waves=max(8, self.burst_waves // 4),
            calib_rounds=max(2, self.calib_rounds // 2),
            shard_hosts_per_shard=self.shard_hosts_per_shard,
            shard_waves=max(6, self.shard_waves // 4),
        )


QUICK = Scale(pingpong_rounds=200, contention_warmup_ms=20.0,
              contention_duration_ms=25.0, chaos_duration_ns=4_000_000,
              burst_waves=20, calib_rounds=4, shard_waves=12)


# --------------------------------------------------------------- scenarios
def _run_pingpong(sim_factory: Callable, scale: Scale, traced: bool,
                  express: bool = True) -> dict:
    """N request/reply round trips between two endpoints (Figure 3 cycle)."""
    reset_global_ids()
    rounds = scale.pingpong_rounds
    cluster = Cluster(ClusterConfig(num_hosts=4, express_path=express),
                      sim_factory=sim_factory)
    bus = cluster.enable_tracing() if traced else None
    sim = cluster.sim
    vnet = cluster.run_process(parallel_vnet(cluster, [0, 1]), "setup")
    ep0, ep1 = vnet[0], vnet[1]
    done: list[int] = []

    def handler(token):
        token.reply(None)

    def receiver(thr):
        while not done:
            yield from ep1.poll(thr, limit=8)

    def sender(thr):
        for _ in range(rounds):
            yield from ep0.request(thr, 1, handler, nbytes=16)
            while True:
                got = yield from ep0.poll(thr, limit=4)
                if got:
                    break
        done.append(1)

    cluster.node(1).start_process("r").spawn_thread(receiver)
    cluster.node(0).start_process("s").spawn_thread(sender)
    t0 = time.perf_counter()
    sim.run(until=sim.now + ms(30_000), stop=lambda: bool(done))
    wall = time.perf_counter() - t0
    if not done:
        raise RuntimeError("ping-pong did not complete inside the time budget")
    digest = timeline_digest(bus.events) if traced else None
    if bus is not None:
        bus.detach()
    return {
        "wall_s": wall,
        "events": sim.events_dispatched,
        "sim_ns": sim.now,
        "digest": digest,
        # end-state that must be identical across kernels
        "checks": {"rounds": rounds, "sim_ns": sim.now, "digest": digest},
    }


def _run_contention(sim_factory: Callable, scale: Scale, traced: bool,
                    express: bool = True) -> dict:
    """Figure 6 OneVN contention: 4 clients thrash one shared endpoint."""
    reset_global_ids()
    ccfg = ContentionConfig(
        nclients=4, mode="one_vn",
        warmup_ms=scale.contention_warmup_ms,
        duration_ms=scale.contention_duration_ms,
        # spin elision removes most of this scenario's events, which
        # would move the committed event count and the kernel ratio
        # measured over it — pin it off
        base=ClusterConfig(express_path=express, spin_elision=False),
    )
    t0 = time.perf_counter()
    res = run_contention(ccfg, sim_factory=sim_factory)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "events": res.events_dispatched,
        "sim_ns": res.sim_ns,
        "digest": None,
        "checks": {
            "sim_ns": res.sim_ns,
            "aggregate_msgs_s": round(res.aggregate_msgs_s, 6),
            "per_client_msgs_s": [round(x, 6) for x in res.per_client_msgs_s],
            "remaps_per_s": round(res.remaps_per_s, 6),
        },
    }


def _run_chaos_smoke(sim_factory: Callable, scale: Scale, traced: bool,
                     express: bool = True) -> dict:
    """One audited chaos run (mixed faults, pairwise workload, 8 hosts)."""
    gen = ScheduleGenerator(
        1, num_hosts=8, num_spines=2, num_procs=4, num_eps=4,
        duration_ns=scale.chaos_duration_ns, profile="rough",
    )
    scenario = gen.generate("mixed")
    # Chaos always traces, so the express path never engages here; the
    # express knob is still honoured so the on/off oracle can pin that.
    cfg = chaos_config(scenario.seed, num_hosts=8, express_path=express)
    t0 = time.perf_counter()
    report = run_chaos(scenario, "pairwise", cfg=cfg, num_hosts=8, keep=True,
                       sim_factory=sim_factory)
    wall = time.perf_counter() - t0
    if not report.ok:
        raise RuntimeError(
            f"chaos smoke run violated the delivery contract: {report.violations}")
    sim = report.cluster.sim  # type: ignore[attr-defined]
    return {
        "wall_s": wall,
        "events": sim.events_dispatched,
        "sim_ns": report.sim_ns,
        "digest": report.digest,
        "checks": {
            "digest": report.digest,
            "sim_ns": report.sim_ns,
            "accepted": report.accepted,
            "delivered": report.delivered,
            "returned": report.returned,
        },
    }


def _run_net_burst(sim_factory: Callable, scale: Scale, traced: bool,
                   express: bool = True) -> dict:
    """Network-heavy all-to-all burst driving the fabric directly.

    Waves of shift-permutation traffic, staggered so most packets find
    an idle fabric (express commits), interleaved with hotspot waves
    (everyone to host 0 — queueing, revocations, fallbacks) and
    loopback self-send waves.  The delivery timeline is recorded by the
    rx handlers themselves — ``(t, src, dst, msg, bytes)`` tuples — so
    the digest is observable-behaviour-only and identical whether the
    kernel traced or the express path engaged.
    """
    reset_global_ids()
    n = scale.burst_hosts
    cfg = ClusterConfig(num_hosts=n, seed=11, express_path=express)
    sim = sim_factory()
    net = Network(sim, cfg)
    deliveries: list[tuple[int, int, int, int, int]] = []

    def rx(pkt: Packet) -> None:
        deliveries.append((sim.now, pkt.src_nic, pkt.dst_nic,
                           pkt.msg_id, pkt.payload_bytes))

    for i in range(n):
        net.attach(i, rx)

    msg_id = 0

    def inject(src: int, dst: int, nbytes: int, mid: int) -> None:
        net.send(Packet(src, dst, PacketType.DATA,
                        payload_bytes=nbytes, msg_id=mid))

    base = 0
    for w in range(scale.burst_waves):
        if w % 7 == 6:          # loopback wave: everyone to themselves
            targets = [(i, i) for i in range(n)]
            stagger, pad = 400, 5_000
        elif w % 13 == 4:       # hotspot wave: a dozen senders pile onto
            targets = [(i, 0) for i in range(1, 13)]  # host 0 at once —
            stagger, pad = 150, 60_000  # revocation + fallback pressure
        else:                   # shift permutation: each flight finishes
            shift = (w % (n - 1)) + 1  # before the next injection, so
            targets = [(i, (i + shift) % n) for i in range(n)]  # express
            stagger, pad = 6_000, 20_000  # commits and is never revoked
        for k, (src, dst) in enumerate(targets):
            msg_id += 1
            nbytes = 16 + ((w * 13 + k * 7) % 6) * 48
            sim.schedule(base + k * stagger, inject, src, dst, nbytes, msg_id)
        base += len(targets) * stagger + pad

    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    if len(deliveries) != msg_id:
        raise RuntimeError(
            f"net_burst lost packets: {msg_id} sent, {len(deliveries)} delivered")

    h = hashlib.sha256()
    for rec in sorted(deliveries):
        h.update(repr(rec).encode())
    h.update(repr(sorted(asdict(net.stats).items())).encode())
    digest = h.hexdigest()
    x = net.express
    return {
        "wall_s": wall,
        "events": sim.events_dispatched,
        "sim_ns": sim.now,
        "digest": digest,
        "checks": {"digest": digest, "sim_ns": sim.now,
                   "stats": sorted(asdict(net.stats).items())},
        "express_stats": {
            "hits": x.hits(), "commits": x.commits, "loopback": x.loopback,
            "delivered": x.delivered, "revoked": x.revoked,
            "fallback_busy": x.fallback_busy,
            "fallback_active": x.fallback_active,
        },
    }


def _run_calib_workloads(sim_factory: Callable, scale: Scale, traced: bool,
                         express: bool = True) -> dict:
    """The datacenter diversity shapes (incast / fan-out / streaming).

    Untraced; the per-workload digest covers only express-invariant
    observables (counts + simulated latencies), so the on/off oracle
    and the kernel oracle both apply to it.
    """
    from ..calib.workloads import run_workload_bench

    r = scale.calib_rounds
    shapes = [
        ("incast", {"senders": 4, "rounds": r, "burst": 3}),
        ("rpc_fanout", {"workers": 4, "rounds": r}),
        ("streaming", {"stages": 3, "messages": 3 * r}),
    ]
    wall = 0.0
    sim_ns = handled = 0
    digests: list[str] = []
    for name, kwargs in shapes:
        res = run_workload_bench(name, express=express,
                                 sim_factory=sim_factory, **kwargs)
        wall += res.wall_s
        sim_ns += res.sim_ns
        handled += res.handled
        digests.append(res.digest)
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    digest = h.hexdigest()
    return {
        "wall_s": wall,
        # the workload runner doesn't expose the kernel's event counter
        # per shape; report total handled messages as the work metric
        "events": handled,
        "sim_ns": sim_ns,
        "digest": digest,
        "checks": {"digest": digest, "sim_ns": sim_ns, "handled": handled},
    }


_RUNNERS = {
    "logp_pingpong": _run_pingpong,
    "fig6_contention": _run_contention,
    "chaos_smoke": _run_chaos_smoke,
    "net_burst": _run_net_burst,
    "calib_workloads": _run_calib_workloads,
}

#: scenarios whose timeline digest is compared bit-for-bit across kernels
#: (net_burst's digest comes from its own delivery records, not the bus)
TRACED = {"logp_pingpong": True, "fig6_contention": False,
          "chaos_smoke": True, "net_burst": False, "calib_workloads": False}


def run_scenario(name: str, sim_factory: Callable = Simulator,
                 scale: Scale = Scale(), traced: Optional[bool] = None,
                 express: bool = True) -> dict:
    """Run one named scenario; returns wall/events/sim_ns/digest/checks."""
    if traced is None:
        traced = TRACED[name]
    return _RUNNERS[name](sim_factory, scale, traced, express)


# ----------------------------------------------------------- shard scaling
#: shard counts measured by the shard_scaling section
SHARD_COUNTS = (1, 2, 4, 8)
#: executors cross-validated bit-for-bit against the sequential kernel
SHARD_MP_COUNTS = (2, 4)


def run_shard_scaling(scale: Scale = None, shard_counts=SHARD_COUNTS,
                      scenario: str = "uniform", seed: int = 7,
                      mp_counts=SHARD_MP_COUNTS, quick: bool = False) -> dict:
    """Events/s scaling of the PDES kernel at 1/2/4/8 shards.

    For every shard count the same workload runs on the sequential
    kernel (one merged heap — the baseline) and the in-process windowed
    executor; their digests, delivery counts and dispatched-event
    totals must match bit for bit, and at the counts in ``mp_counts``
    the ``multiprocessing`` executor is held to the same oracle.

    The committed scaling figure is ``parallelism_events`` — the
    machine-independent critical-path ratio ``total_events /
    sum_over_windows(max_per_shard_events)``, i.e. the events/s
    multiple the windowed schedule itself exposes (barriers included),
    following the suite's convention of gating ratios rather than raw
    walls (shared runners lie about absolute time; a 1-core runner
    cannot show mp wall speedup at all).  Measured walls for all
    executors are reported alongside, unchecked.
    """
    from ..sim.sharded import ShardedSimulator

    if scale is None:
        scale = QUICK if quick else Scale()
    hps = scale.shard_hosts_per_shard
    params = {"waves": scale.shard_waves}
    out: dict = {"scenario": scenario, "hosts_per_shard": hps,
                 "waves": scale.shard_waves, "shards": {}}
    for n in shard_counts:
        cfg = ClusterConfig(num_hosts=n * hps, num_shards=n, seed=seed,
                            engine="sharded")
        sharded = ShardedSimulator(cfg, scenario=scenario, params=params)
        seq = sharded.run("sequential")
        inp = sharded.run("inprocess")
        if seq.checks != inp.checks:
            raise RuntimeError(
                f"shard_scaling[{scenario} x{n}]: sequential and windowed "
                f"runs diverged:\n  sequential: {seq.checks}\n"
                f"  inprocess:  {inp.checks}")
        entry = {
            "events": seq.events,
            "delivered": len(seq.deliveries),
            "digest": seq.checks["digest"],
            "digest_match": True,
            "sequential": {
                "wall_s": round(seq.wall_s, 4),
                "events_per_sec": round(seq.events / seq.wall_s),
            },
            "inprocess": {
                "wall_s": round(inp.wall_s, 4),
                "barriers": inp.barriers,
                "crit_events": inp.crit_events,
                "crit_wall_s": round(inp.crit_wall_s, 4),
            },
            "parallelism_events": round(inp.parallelism(), 3),
        }
        if n in mp_counts:
            mpr = sharded.run("mp")
            if seq.checks != mpr.checks:
                raise RuntimeError(
                    f"shard_scaling[{scenario} x{n}]: mp executor diverged:\n"
                    f"  sequential: {seq.checks}\n  mp:         {mpr.checks}")
            entry["mp"] = {"wall_s": round(mpr.wall_s, 4),
                           "digest_match": True}
        out["shards"][str(n)] = entry
    four = out["shards"].get("4")
    if four is not None:
        out["speedup_4shards"] = four["parallelism_events"]
    return out


# ------------------------------------------------------------------- suite
def check_express_equivalence(name: str, scale: Scale) -> tuple[dict, dict]:
    """Run ``name`` with the express path on and off; the mode-invariant
    end state (``checks``) must match bit for bit.  Returns both runs."""
    on = run_scenario(name, Simulator, scale, traced=False, express=True)
    off = run_scenario(name, Simulator, scale, traced=False, express=False)
    if on["checks"] != off["checks"]:
        raise RuntimeError(
            f"{name}: express and full-fidelity modes diverged:\n"
            f"  express: {on['checks']}\n  full:    {off['checks']}")
    return on, off


def run_suite(reference: bool = False, quick: bool = False,
              repeat: int = 1) -> dict:
    """Measure every scenario; with ``reference``, also replay each on the
    reference kernel and record digest equality + the speedup ratio."""
    scale = QUICK if quick else Scale()
    suite: dict = {"schema": 1, "quick": quick, "scenarios": {}}
    for name in SCENARIOS:
        if reference:
            # equivalence pass first: traced where the scenario supports
            # it, so the timeline digests can be compared bit for bit
            opt = run_scenario(name, Simulator, scale, traced=TRACED[name])
            ref = run_scenario(name, ReferenceSimulator, scale,
                               traced=TRACED[name])
            if opt["checks"] != ref["checks"]:
                raise RuntimeError(
                    f"{name}: optimized and reference kernels diverged:\n"
                    f"  optimized: {opt['checks']}\n  reference: {ref['checks']}")
            if opt["events"] != ref["events"]:
                raise RuntimeError(
                    f"{name}: kernels dispatched different event counts "
                    f"({opt['events']} vs {ref['events']}) — a fast path "
                    "added or removed events")
            # Express/full oracle: same observable end state.  (Event
            # counts are NOT compared here — eliding events is the
            # express path's whole point.)
            check_express_equivalence(name, scale)

        # speed passes, untraced (chaos is traced by construction — the
        # audit is part of that scenario).  Optimized and reference runs
        # are interleaved back to back so transient machine load hits
        # both sides of the ratio equally; best wall per side is kept.
        best = ref_best = None
        for _ in range(max(1, repeat)):
            r = run_scenario(name, Simulator, scale, traced=False)
            if best is None or r["wall_s"] < best["wall_s"]:
                best = r
            if reference:
                r2 = run_scenario(name, ReferenceSimulator, scale,
                                  traced=False)
                if ref_best is None or r2["wall_s"] < ref_best["wall_s"]:
                    ref_best = r2
        entry = {
            "events": best["events"],
            "sim_ns": best["sim_ns"],
            "wall_s": round(best["wall_s"], 4),
            "events_per_sec": round(best["events"] / best["wall_s"]),
        }
        if best["digest"]:
            entry["digest"] = best["digest"]
        if reference:
            entry["digest_match"] = True
            if opt["digest"]:
                entry["digest"] = opt["digest"]
            entry["reference_events_per_sec"] = round(
                ref_best["events"] / ref_best["wall_s"])
            entry["speedup_vs_reference"] = round(
                entry["events_per_sec"] / entry["reference_events_per_sec"], 3)

        if name == "net_burst":
            # Express speedup: replay with the express path off (full
            # wormhole fidelity), require an identical end state, and
            # express the win as effective events/s — the full-mode
            # event count (the work represented) over the express wall.
            full_best = None
            for _ in range(max(1, repeat)):
                r = run_scenario(name, Simulator, scale, traced=False,
                                 express=False)
                if full_best is None or r["wall_s"] < full_best["wall_s"]:
                    full_best = r
            if best["checks"] != full_best["checks"]:
                raise RuntimeError(
                    "net_burst: express and full-fidelity modes diverged:\n"
                    f"  express: {best['checks']}\n"
                    f"  full:    {full_best['checks']}")
            full_rate = full_best["events"] / full_best["wall_s"]
            effective = full_best["events"] / best["wall_s"]
            entry["express"] = {
                "full_events": full_best["events"],
                "full_wall_s": round(full_best["wall_s"], 4),
                "full_events_per_sec": round(full_rate),
                "events_per_sec_effective": round(effective),
                "speedup_express": round(effective / full_rate, 3),
                **best["express_stats"],
            }

        # peak-heap pass at reduced scale, under tracemalloc
        tracemalloc.start()
        run_scenario(name, Simulator, scale.shrunk(), traced=False
                     if name != "chaos_smoke" else True)
        entry["peak_heap_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        suite["scenarios"][name] = entry
    # PDES scaling: digest-gated against the sequential kernel at
    # every shard count, mp executor cross-validated where listed.
    suite["shard_scaling"] = run_shard_scaling(
        scale=scale, mp_counts=(2,) if quick else SHARD_MP_COUNTS)
    return suite


def check_baseline(suite: dict, baseline: dict) -> list[str]:
    """The >20%-regression rule: current speedup_vs_reference must stay
    within CHECK_TOLERANCE of the committed baseline's.  Returns failures."""
    failures = []
    for name, base in baseline.get("scenarios", {}).items():
        base_ratio = base.get("speedup_vs_reference")
        if base_ratio is not None:
            cur = suite["scenarios"].get(name, {}).get("speedup_vs_reference")
            if cur is None:
                failures.append(f"{name}: no speedup_vs_reference measured")
            elif cur < CHECK_TOLERANCE * base_ratio:
                failures.append(
                    f"{name}: speedup vs reference kernel fell to {cur:.2f}x "
                    f"(baseline {base_ratio:.2f}x, floor "
                    f"{CHECK_TOLERANCE * base_ratio:.2f}x)")
        base_express = base.get("express", {}).get("speedup_express")
        if base_express is not None:
            cur = (suite["scenarios"].get(name, {})
                   .get("express", {}).get("speedup_express"))
            if cur is None:
                failures.append(f"{name}: no speedup_express measured")
            elif cur < CHECK_TOLERANCE * base_express:
                failures.append(
                    f"{name}: express-path speedup fell to {cur:.2f}x "
                    f"(baseline {base_express:.2f}x, floor "
                    f"{CHECK_TOLERANCE * base_express:.2f}x)")
    base_shard = baseline.get("shard_scaling", {}).get("speedup_4shards")
    if base_shard is not None:
        cur = suite.get("shard_scaling", {}).get("speedup_4shards")
        if cur is None:
            failures.append("shard_scaling: no speedup_4shards measured")
        elif cur < CHECK_TOLERANCE * base_shard:
            failures.append(
                f"shard_scaling: 4-shard critical-path parallelism fell "
                f"to {cur:.2f}x (baseline {base_shard:.2f}x, floor "
                f"{CHECK_TOLERANCE * base_shard:.2f}x)")
    return failures


# --------------------------------------------------------------------- CLI
def _print_suite(suite: dict) -> None:
    headers = ["scenario", "events", "events/s", "wall s", "peak heap",
               "vs ref", "express", "digest"]
    rows = []
    for name, e in suite["scenarios"].items():
        rows.append([
            name, e["events"], f"{e['events_per_sec']:,}",
            f"{e['wall_s']:.3f}", f"{e['peak_heap_bytes'] / 1024:.0f} KiB",
            (f"{e['speedup_vs_reference']:.2f}x"
             if "speedup_vs_reference" in e else "-"),
            (f"{e['express']['speedup_express']:.2f}x"
             if "express" in e else "-"),
            ("match" if e.get("digest_match")
             else (e.get("digest", "")[:12] or "-")),
        ])
    print_table(headers, rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--reference", action="store_true",
                    help="replay each scenario on the reference kernel: "
                         "assert identical digests/state, record speedup")
    ap.add_argument("--check", action="store_true",
                    help="fail if speedup_vs_reference regressed >20%% "
                         "below the baseline JSON (implies --reference)")
    ap.add_argument("--baseline", default="BENCH_PERF.json",
                    help="baseline JSON for --check (default: committed "
                         "BENCH_PERF.json)")
    ap.add_argument("--out", default="BENCH_PERF.json",
                    help="where to write results (default BENCH_PERF.json; "
                         "under --check it must not be the baseline)")
    ap.add_argument("--quick", action="store_true",
                    help="smaller problem sizes (CI smoke)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="throughput passes per scenario; best wall kept")
    ap.add_argument("--shard-smoke", action="store_true",
                    help="run only the sharded-kernel digest-equivalence "
                         "gate (2 shards, all executors, every shard "
                         "scenario) and write the result to --out")
    args = ap.parse_args(argv)

    if args.shard_smoke:
        doc: dict = {"schema": 1, "shard_smoke": {}}
        for scen in ("uniform", "hotspot", "chaos_storm"):
            res = run_shard_scaling(scale=QUICK, shard_counts=(1, 2),
                                    mp_counts=(2,), scenario=scen)
            doc["shard_smoke"][scen] = res
            print(f"shard-smoke {scen}: digests match across "
                  f"sequential/inprocess/mp at 2 shards "
                  f"(parallelism {res['shards']['2']['parallelism_events']:.2f}x)")
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
        return 0

    baseline = None
    if args.check:
        # the run must not replace the record it is checked against
        if os.path.realpath(args.out) == os.path.realpath(args.baseline):
            ap.error(f"--check compares against {args.baseline}; "
                     "write the run elsewhere with --out")
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except FileNotFoundError:
            print(f"no baseline at {args.baseline}; nothing to check against")

    reference = args.reference or args.check
    suite = run_suite(reference=reference, quick=args.quick,
                      repeat=args.repeat)
    _print_suite(suite)

    with open(args.out, "w") as f:
        json.dump(suite, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    if baseline is not None:
        failures = check_baseline(suite, baseline)
        for msg in failures:
            print(f"PERF REGRESSION: {msg}")
        if failures:
            return 1
        print("perf check ok: all scenarios within 20% of baseline speedup")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
