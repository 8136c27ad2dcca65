"""One repetition of one workload, in this process; prints one JSON line.

    python3 perfbench/rep.py --workload logp --seed 1999 [--profile] [--engine reference]

``run.py`` starts this script once per repetition, so each repetition has
a fresh interpreter.  The printed record keeps host times (``host``) apart
from the deterministic simulated results and counts (``sim``), so that no
digest of ``sim`` ever covers a wall time.

With ``--profile`` the timed phase, and only the timed phase, runs under
``cProfile``.  Tracing through ``repro.obs`` stays off: it disengages the
fabric's express path and would time a different program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import WORKLOADS, counts, delta  # noqa: E402

#: set-ups timed per repetition: the one the timed phase uses, then more
#: after it, so set-up time is a median even in a short run
SETUPS = 5


def _profiled_run(workload, built) -> tuple[float, dict, dict]:
    import cProfile
    import pstats

    from layers import call_count, self_time_by_layer

    prof = cProfile.Profile()
    prof.enable()
    t0 = time.perf_counter()
    workload.run(built)
    run_s = time.perf_counter() - t0
    prof.disable()
    stats = pstats.Stats(prof)
    calls = {
        "osim.compute_calls": call_count(stats, "repro/osim/threads.py", "compute"),
        "lib.recv_calls": call_count(stats, "repro/lib/mpi.py", "recv"),
    }
    return run_s, self_time_by_layer(stats), calls


def rep(name: str, seed: int, profile: bool, engine: str | None) -> dict:
    workload = WORKLOADS[name]
    setup_s = []
    t0 = time.perf_counter()
    built = workload.setup(seed, engine)
    setup_s.append(time.perf_counter() - t0)
    before = counts(built)
    record: dict = {}
    if profile:
        run_s, self_s, calls = _profiled_run(workload, built)
        record["profile"] = {"self_s": self_s, "calls": calls}
    else:
        t0 = time.perf_counter()
        workload.run(built)
        run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["sim"] = {"results": workload.results(built),
                     "counts": delta(counts(built), before),
                     "nodes": len(built.cluster.nodes)}
    if not profile:
        del built
        for _ in range(SETUPS - 1):
            gc.collect()
            t0 = time.perf_counter()
            workload.setup(seed, engine)
            setup_s.append(time.perf_counter() - t0)
    record["host"] = {"setup_s": setup_s, "run_s": run_s,
                      "peak_rss_mb": peak_rss_mb}
    return record


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--engine", choices=["sequential", "reference"], default=None)
    args = ap.parse_args()
    print(json.dumps(rep(args.workload, args.seed, args.profile, args.engine)))


if __name__ == "__main__":
    main()
