"""Host time to regenerate three paper artifacts on the simulator.

    python3 perfbench/run.py --workload {logp,overcommit,npb_is} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  Each repetition of the workload runs in a
fresh interpreter (``rep.py``), one at a time, until ``--seconds`` have
passed (at least ``MIN_REPS`` when time allows); host figures are medians
over the repetitions.  Every repetition's simulated results must fall in
the paper bands the repo asserts, equal the pinned values at the default
seed, and be identical across repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
repetitions for half of ``--seconds``, then one repetition with the timed
phase under ``cProfile``, and prints the per-layer metrics: self time by
layer from that repetition, exact counts from the untraced ones, and
``trace.overhead_x``, the traced ``run_s`` over the untraced one.  The
traced repetition must simulate exactly what the untraced ones did, its
express-path ratio included.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the run
record: provenance, the deterministic simulated block, and the host times
kept apart from it.  A failed check exits 1 after printing the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3
#: the whole run, traced repetition included, must end well inside 180 s
BUDGET_S = 165.0
#: the cost of one traced repetition, as a multiple of an untraced one
TRACE_COST_X = 6.0


def _rep(workload: str, seed: int, profile: bool, timeout: float) -> tuple[dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed)]
    if profile:
        cmd.append("--profile")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: repetition of {workload} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def _git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, sizes: dict) -> dict:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }


def end_to_end(reps: list[dict]) -> dict:
    run_s = statistics.median(r["host"]["run_s"] for r in reps)
    handled = reps[0]["sim"]["counts"]["am.requests_handled"]
    return {
        "setup_s": (statistics.median(s for r in reps for s in r["host"]["setup_s"]), "s"),
        "run_s": (run_s, "s"),
        "msgs_per_s": (handled / run_s, "1/s"),
        "peak_rss_mb": (statistics.median(r["host"]["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(reps: list[dict], traced: dict) -> dict:
    c = reps[0]["sim"]["counts"]
    msgs = c["am.requests_handled"]
    run_s = statistics.median(r["host"]["run_s"] for r in reps)
    self_s = traced["profile"]["self_s"]
    calls = traced["profile"]["calls"]
    # SBus engine-time over every NIC's share of the timed phase's simulated
    # span, which runs to the figure harness's fixed horizon
    elapsed_ns = c["sim.now_ns"] * reps[0]["sim"]["nodes"]
    out = {
        "sim.events_per_msg": (c["sim.events"] / msgs, "events/msg"),
        "sim.host_ns_per_event": (run_s * 1e9 / c["sim.events"], "ns"),
        "osim.compute_calls_per_msg": (calls["osim.compute_calls"] / msgs, "calls/msg"),
        "am.polls_per_msg": (c["am.polls"] / msgs, "polls/msg"),
        "am.credit_stalls_per_req": (c["am.credit_stalls"] / c["am.requests_sent"], "stalls/req"),
        "segdriver.remaps": (c["segdriver.remaps"], "count"),
        "segdriver.evictions": (c["segdriver.evictions"], "count"),
        "nic.retx_ratio": (c["nic.retransmissions"] / c["nic.data_sent"], "ratio"),
        "myrinet.express_ratio": (c["myrinet.express_delivered"] / c["myrinet.sent"], "ratio"),
        "myrinet.express_revoked": (c["myrinet.express_revoked"], "count"),
        "hw.sbus_util": (c["hw.sbus_busy_ns"] / elapsed_ns, "ratio"),
        "lib.recv_calls_per_msg": (calls["lib.recv_calls"] / msgs, "calls/msg"),
        "trace.overhead_x": (traced["host"]["run_s"] / run_s, "x"),
    }
    for layer, secs in self_s.items():
        out[f"{layer}.self_s"] = (secs, "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"perfbench: no simulator sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from workloads import SIZES, WORKLOADS, check, headline

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    # a terminated run kills the repetition it is waiting on (subprocess.run
    # kills its child on any exception) instead of orphaning it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.perf_counter()
    trace = bool(args.trace)
    # a traced run spends half its seconds on the untraced repetitions
    # that give its counts and the base of trace.overhead_x
    seconds, min_reps = (args.seconds / 2, 1) if trace else (args.seconds, MIN_REPS)
    reps: list[dict] = []
    walls: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        need = max(walls, default=0.0) * (1 + (TRACE_COST_X if trace else 0))
        if reps and (elapsed + need > BUDGET_S
                     or (elapsed >= seconds and len(reps) >= min_reps)):
            break
        rec, wall = _rep(args.workload, args.seed, False, BUDGET_S - elapsed)
        reps.append(rec)
        walls.append(wall)
    traced = None
    if trace:
        traced, _ = _rep(args.workload, args.seed, True,
                         max(1.0, BUDGET_S + 10 - (time.perf_counter() - start)))

    failures = check(args.workload, reps[0]["sim"]["results"], args.seed)
    if any(r["sim"] != reps[0]["sim"] for r in reps):
        failures.append("simulated results differ between repetitions")
    if traced is not None and traced["sim"] != reps[0]["sim"]:
        failures.append("the traced repetition simulated a different program")
    correct = not failures

    everything = reps + ([traced] if traced else [])
    attempted = sum(r["sim"]["counts"]["am.requests_sent"] for r in everything)
    failed = sum(r["sim"]["counts"]["am.undeliverable"] + r["sim"]["counts"]["nic.returns"]
                 for r in everything)
    if not correct:
        failed = attempted
    metrics = per_layer(reps, traced) if trace else end_to_end(reps)

    print(f"perfbench {args.workload}: seed {args.seed}, {len(reps)} repetitions"
          + (" + 1 traced" if trace else ""))
    for line in headline(args.workload, reps[0]["sim"]["results"]):
        print(f"  simulated  {line}")
    for f in failures:
        print(f"  CHECK FAILED  {f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "provenance": provenance(args.seed, SIZES[args.workload]),
        "sim": reps[0]["sim"],
        "host": {"run_s": [r["host"]["run_s"] for r in reps],
                 "setup_s": [s for r in reps for s in r["host"]["setup_s"]],
                 "peak_rss_mb": [r["host"]["peak_rss_mb"] for r in reps],
                 "traced_run_s": traced["host"]["run_s"] if traced else None,
                 "self_s": traced["profile"]["self_s"] if traced else None},
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
