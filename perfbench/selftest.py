"""Self-tests of the benchmark: same program, and the reference-kernel oracle.

    python3 perfbench/selftest.py [logp overcommit npb_is]

Run from the repository root; exits 1 if any test fails.  For each
workload, at the default seed, each in a fresh interpreter:

* **same program** -- the benchmark's simulated results equal, bit for
  bit, those of the figure entry point it stands for (``measure_am``,
  ``run_contention``, ``run_npb``) at the same sizes;
* **reference kernel** -- the workload replayed on ``ReferenceSimulator``
  through the ``engine`` argument passes the same checks with identical
  simulated results and per-layer counts, ``sim.events`` included;
* **checks bite** -- nudging any pinned value makes the checks fail.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, PINNED, SIZES, WORKLOADS, check  # noqa: E402


def entry_point(name: str) -> dict:
    """The simulated results of the figure entry point, at the benchmark's sizes."""
    from repro.cluster.config import ClusterConfig

    s = SIZES[name]
    if name == "logp":
        from repro.bench.logp import measure_am

        r = measure_am(ClusterConfig(num_hosts=s["hosts"], seed=DEFAULT_SEED),
                       pingpongs=s["pingpongs"], flood_msgs=s["flood_msgs"])
        return {"os_us": r.os_us, "or_us": r.or_us, "l_us": r.l_us,
                "g_us": r.g_us, "rtt_us": r.rtt_us}
    if name == "overcommit":
        from repro.apps.clientserver import ContentionConfig, run_contention

        r = run_contention(ContentionConfig(
            nclients=s["clients"], mode="st", frames=s["frames"],
            warmup_ms=s["warmup_ms"], duration_ms=s["duration_ms"],
            handler_ns=s["handler_ns"], seed=DEFAULT_SEED))
        return {"per_client_msgs_s": r.per_client_msgs_s,
                "aggregate_msgs_s": r.aggregate_msgs_s,
                "remaps_per_s": r.remaps_per_s,
                "overrun_nacks": r.overrun_nacks,
                "not_resident_nacks": r.not_resident_nacks,
                "server_cpu_util": r.server_cpu_util,
                "sim_ns": r.sim_ns,
                "events_dispatched": r.events_dispatched}
    from repro.apps.npb import run_npb

    r = run_npb("is", s["ranks"], ClusterConfig(seed=DEFAULT_SEED), iters_sim=s["iters_sim"])
    return {"comp_iter_s": r.comp_iter_s, "comm_iter_s": r.comm_iter_s,
            "time_s": r.time_s, "speedup": r.speedup, "comm_fraction": r.comm_fraction}


def _fresh(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rep(name: str, engine: str) -> dict:
    return _fresh([os.path.join(HERE, "rep.py"), "--workload", name,
                   "--seed", str(DEFAULT_SEED), "--engine", engine])["sim"]


def selftest(name: str) -> list[str]:
    failures = []
    bench = _rep(name, "sequential")
    failures += [f"checks: {f}" for f in check(name, bench["results"], DEFAULT_SEED)]

    figure = _fresh([os.path.abspath(__file__), "--entry", name])
    if figure != bench["results"]:
        failures.append(f"same program: benchmark {bench['results']} != entry point {figure}")

    ref = _rep(name, "reference")
    failures += [f"reference checks: {f}" for f in check(name, ref["results"], DEFAULT_SEED)]
    if ref["counts"]["sim.events"] != bench["counts"]["sim.events"]:
        failures.append(f"reference kernel: sim.events {ref['counts']['sim.events']}"
                        f" != {bench['counts']['sim.events']}")
    if ref != bench:
        failures.append(f"reference kernel: simulated block differs: {ref} != {bench}")

    for key, value in PINNED[name].items():
        nudged = copy.deepcopy(bench["results"])
        if isinstance(value, list):
            nudged[key][0] += 1e-9
        else:
            nudged[key] += 1e-9 if isinstance(value, float) else 1
        if not check(name, nudged, DEFAULT_SEED):
            failures.append(f"checks bite: nudging {key} went unnoticed")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--entry", choices=sorted(WORKLOADS),
                    help="print one entry point's results as JSON (used by the test)")
    args = ap.parse_args()
    if args.entry:
        print(json.dumps(entry_point(args.entry)))
        return 0
    bad = 0
    for name in args.workloads:
        failures = selftest(name)
        print(f"{name}: {'ok' if not failures else 'FAILED'}")
        for f in failures:
            print(f"  {f}")
        bad += bool(failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
