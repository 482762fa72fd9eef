"""One fresh interpreter: set up the package, then optionally run one job.

    python3 perfbench/job.py [--workload NAME --seed N [--trace]]

Set-up is importing ``halfnorm_stein`` and its command line from the
checkout's ``src`` and two small warm-up calls, so lazy set-up in numpy
and scipy is paid before the job is timed. The last line of standard
output is a JSON object with the set-up time and, for a job, its wall and
CPU time, peak resident memory, items attempted and failed, and the
traced layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def set_up():
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import halfnorm_stein as hs
    import halfnorm_stein.cli  # noqa: F401  (the users' entry point)
    if os.path.dirname(os.path.dirname(os.path.abspath(hs.__file__))) != SRC:
        raise SystemExit(f"halfnorm_stein imported from {hs.__file__}, "
                         f"not from {SRC}")
    hs.bound_check("max", 16)
    hs.mu_h(hs.stein.IDENTITY)
    return hs, time.perf_counter() - start


def run(hs, workload: str, seed: int, traced: bool) -> dict:
    inp = workloads.inputs(workload, seed)
    tracer = tracing.install(hs) if traced else None
    gc.collect()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    out = workloads.JOBS[workload](hs, inp)
    verdict_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items = workloads.CHECKS[workload](inp, out,
                                       workloads.load_reference(workload))
    result = {
        "verdict_s": verdict_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failures": [f"{item}: {reason}" for item, reason in items
                     if reason is not None],
    }
    if tracer is not None:
        trials = workloads.MC_TRIALS if workload == "oracles" else 0
        result["layers"] = tracer.layer_metrics(trials)
        result["calls"] = tracer.calls()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    hs, setup_s = set_up()
    import numpy
    import scipy
    result = {"setup_s": setup_s, "version": hs.__version__,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    if args.workload:
        result.update(run(hs, args.workload, args.seed, args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
