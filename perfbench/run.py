"""The repository benchmark.

    python3 perfbench/run.py --workload {sweep,certify,oracles} --seed N \\
        --seconds S --trace {0,1}

Every measurement runs in a fresh interpreter (``job.py``) started from
here, with the environment as given minus ``STEIN_HN_THREADS``, so the
program runs as users get it. ``--trace 0`` runs the workload's job again
and again for ``--seconds``, reports the mean wall time, CPU time and peak
memory of those jobs, adds set-up-only interpreters until there are at
least ``SETUP_SAMPLES`` set-up times, and reports their median.
``--trace 1`` runs the job once untraced and twice traced, each in its own
interpreter, reports the per-layer metrics of the first traced run and the
tracing overhead, and requires the exact counters of the two traced runs
to be equal.

The last line of standard output is the result object; every output is
checked against references recorded from the seed code (see
``make_reference.py``), and any failed item makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
SETUP_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def child(deadline: float, workload=None, seed=0, traced=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "job.py")]
    if workload is not None:
        cmd += ["--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    env = {k: v for k, v in os.environ.items() if k != "STEIN_HN_THREADS"}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:])} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, deadline: float):
    runs = []
    start = time.monotonic()
    elapsed = rep = 0.0
    # start another job only while it is expected to end inside the window
    while not runs or (elapsed + rep <= seconds
                       and start + elapsed + 2 * rep < deadline):
        runs.append(child(deadline, workload, seed))
        rep = time.monotonic() - start - elapsed
        elapsed += rep
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(deadline)["setup_s"])
    # The host's speed drifts in phases of seconds to tens of seconds; the
    # mean over the window's jobs varies less from run to run than their
    # median, which settles on whichever phase held most of the jobs.
    metrics = {name: statistics.median(setups) if name == "setup_s"
               else statistics.fmean(r[name] for r in runs)
               for name, _ in END_TO_END}
    return runs, metrics, [], {
        "verdict_s_samples": [r["verdict_s"] for r in runs],
        "setup_s_samples": setups}


def measure_traced(workload: str, seed: int, deadline: float):
    plain = child(deadline, workload, seed)
    traced = [child(deadline, workload, seed, traced=True) for _ in range(2)]
    first, second = traced
    problems = []
    if first["calls"] != second["calls"]:
        changed = sorted(k for k in first["calls"].keys() | second["calls"]
                         if first["calls"].get(k) != second["calls"].get(k))
        problems.append(f"call counts differ between traced runs: {changed}")
    for name in tracing.EXACT_COUNTERS:
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"{name} differs between traced runs")
    metrics = {name: first["layers"][name] for name, _ in tracing.PER_LAYER
               if name in first["layers"]}
    layer_self_s = sum(first["layers"][f"{layer}.self_ms"]
                       for layer in tracing.LAYERS) / 1e3
    metrics["trace.verdict_s"] = first["verdict_s"]
    metrics["trace.untraced_verdict_s"] = plain["verdict_s"]
    metrics["trace.overhead_s"] = first["verdict_s"] - plain["verdict_s"]
    metrics["trace.unattributed_s"] = first["verdict_s"] - layer_self_s
    return [plain, *traced], metrics, problems, {
        "counters": {name: first["layers"][name]
                     for name in tracing.EXACT_COUNTERS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs, metrics, problems, extra = measure_traced(
                args.workload, args.seed, deadline)
            units = dict(tracing.PER_LAYER)
        else:
            runs, metrics, problems, extra = measure(
                args.workload, args.seed, args.seconds, deadline)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # in a traced run the counter comparison is one more item
    failures = [f for r in runs for f in r["failures"]] + problems
    attempted = sum(r["attempted"] for r in runs) + args.trace
    failed = sum(len(r["failures"]) for r in runs) + bool(problems)
    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "version": runs[0]["version"],
        "git_commit": git_commit(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": runs[0]["python"],
        "numpy": runs[0]["numpy"], "scipy": runs[0]["scipy"],
        "inputs": workloads.inputs(args.workload, args.seed), **extra,
    }
    print("provenance " + json.dumps(provenance))
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"fail_frac {failed / attempted!r} ({failed}/{attempted} items)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
