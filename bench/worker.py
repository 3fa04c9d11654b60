"""One workload process: import polybohr, build the seeded pool, warm up, then measure.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It prints
READY and its main thread's CPU seconds so far once set-up is done (import
plus one untimed warm-up op), then, unless --mode setup, one RESULT line of
JSON.

  --mode setup    stop after READY (run.py times several set-ups)
  --mode measure  run whole pool cycles for --seconds, untraced
  --mode trace    one pass over the solve, certify and series pools untraced,
                  then the same pass traced; report the per-layer table
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time, thread_time

import numpy as np
import polybohr  # noqa: F401  (the import is part of set-up)

import workloads

TRACED_WORKLOADS = ("solve", "certify", "series")
# In-process op times are scaled to a reference speed (see measure()).
KERNEL_REF_S = 1e-3   # the speed kernel's time at the reference speed, by definition


def _speed_kernel():
    """Fixed work that slows down with the core: a scalar float loop like the
    majorant sums, then one pass over a small array."""
    s = 0.0
    for i in range(1, 2500):
        x = i * 4e-4
        s += math.sqrt(x) * (1.0 - x) ** 3 / (1.0 + x * x)
    a = np.linspace(0.0, 1.0, 8192)
    return s + float(np.sum(np.sqrt(a) * np.exp(-a)))


def _time_kernel():
    t0 = process_time()
    _speed_kernel()
    return process_time() - t0


def _run_op(case):
    t0 = perf_counter()
    try:
        result = case.run()
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        result = ("exception", f"{type(exc).__name__}: {exc}")
    return perf_counter() - t0, result


def _outcome(case, result):
    if isinstance(result, tuple) and result and result[0] == "exception":
        return "failed", 0.0, [result[1]]
    return workloads.evaluate(case, result)


class Tally:
    """Outcomes of the ops of one run."""

    def __init__(self):
        self.latencies = []
        self.items = 0
        self.counts = {"ok": 0, "witness_not_found": 0, "failed": 0}
        self.max_rel_err = 0.0
        self.problems = []

    def add(self, case, dt, result):
        tag, rel_err, problems = _outcome(case, result)
        self.latencies.append(dt)
        self.counts[tag] += 1
        if tag != "failed":
            self.items += case.items
        self.max_rel_err = max(self.max_rel_err, rel_err)
        if problems and len(self.problems) < 5:
            self.problems.append(f"{case.label}: {problems[0]}")


def measure(workload, pool, seconds):
    """Whole pool cycles until `seconds` have passed.

    On a shared host the core's speed moves by up to 1.7x over seconds, as
    other tenants load it; that moves in-process op times by as much, between
    runs too, and the few slowest of thousands of short ops are the ones the
    scheduler preempted.  So an in-process op is timed in process CPU time,
    between two runs of a fixed speed kernel timed the same way, and scaled
    by KERNEL_REF_S over the mean of those two kernel times: op times are CPU
    ms at the reference speed, at which the kernel takes 1 ms.  A change to
    polybohr moves them as it moves wall time; a change of host load mostly
    does not.  cli_cold is timed in wall ms, unscaled: no
    reference job tracked cold starts (a bare interpreter start slowed by
    1.8x where the calls slowed by 1.35x), and the children's CPU time counts
    numpy's spinning helper threads, which falls when the host is busy.  The
    unscaled wall-time figures are reported as well (wall_*).

    latency_ms_p50 is the median op time of each cycle, averaged over the
    cycles, which is smoother than the median pooled over the run.
    """
    tally = Tally()
    scale = workload != "cli_cold"
    kernel, cpu = [], []
    start = perf_counter()
    deadline = start + seconds
    cycles = 0
    while True:
        for case in pool:
            if scale:
                kernel.append(_time_kernel())
            c0 = process_time()
            dt, result = _run_op(case)
            cpu.append(process_time() - c0)
            tally.add(case, dt, result)
        cycles += 1
        if perf_counter() >= deadline:
            break
    wall = perf_counter() - start

    walls = tally.latencies
    if scale:
        kernel.append(_time_kernel())  # the one after the last op
        times = [c * KERNEL_REF_S / ((kernel[i] + kernel[i + 1]) / 2) for i, c in enumerate(cpu)]
    else:
        times = walls
    summary = _summary(pool, times, tally.items, cycles)
    wall_summary = _summary(pool, walls, tally.items, cycles)
    n = len(walls)
    who = resource.RUSAGE_SELF if scale else resource.RUSAGE_CHILDREN
    return {
        "attempted": n,
        "failed": tally.counts["failed"],
        "witness_not_found": tally.counts["witness_not_found"],
        "fail_ratio": (tally.counts["failed"] + tally.counts["witness_not_found"]) / n,
        "max_rel_err": tally.max_rel_err,
        "problems": tally.problems,
        "cycles": cycles,
        "wall_s": wall,
        "reference_speed": scale,
        "kernel_ms_p50": statistics.median(kernel) * 1e3 if scale else None,
        **summary,
        **{f"wall_{k}": v for k, v in wall_summary.items()},
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def _summary(pool, times, items, cycles):
    """p50 (mean of the per-cycle medians), tail and items per second of op times."""
    size = len(pool)
    cycle_medians = [statistics.median(times[c * size:(c + 1) * size]) for c in range(cycles)]
    lat = sorted(times)
    n = len(lat)
    tail_rank = max(n - 11, 0)  # the highest sample with at least 10 samples above it
    return {
        "latency_ms_p50": statistics.fmean(cycle_medians) * 1e3,
        "pooled_p50_ms": statistics.median(lat) * 1e3,
        "latency_ms_tail": lat[tail_rank] * 1e3,
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "items_per_s": items / sum(lat),
    }


def trace(pools, out_path):
    import spans

    ops = [case for w in TRACED_WORKLOADS for case in pools[w]]
    untraced = Tally()
    for case in ops:
        untraced.add(case, *_run_op(case))

    tracer = spans.Tracer()
    tracer.install()
    traced = Tally()
    for i, case in enumerate(ops):
        tracer.op = i
        traced.add(case, *_run_op(case))
    tracer.write(out_path)

    grid_points = sum(case.sizes["grid_points"] for case in pools["certify"])
    metrics, self_check = spans.layer_metrics(tracer, grid_points)
    metrics["trace.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
    failed = untraced.counts["failed"] + traced.counts["failed"]
    problems = untraced.problems + traced.problems
    if not self_check:
        problems.append(f"extremal.majorant_functional.calls = "
                        f"{metrics['extremal.majorant_functional.calls']}, but the certify "
                        f"verify grids hold {grid_points} points")
    return {
        "attempted": len(ops),
        "failed": failed,
        "witness_not_found": traced.counts["witness_not_found"],
        "self_check": self_check,
        "max_rel_err": max(untraced.max_rel_err, traced.max_rel_err),
        "problems": problems[:5],
        "majorant_calls_expected": grid_points,
        "spans": len(tracer.spans),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--trace-out", default=None, help="where --mode trace writes its spans")
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if args.mode == "trace":
        pools = {w: workloads.build_pool(w, args.seed) for w in TRACED_WORKLOADS}
        warm_up = [pool[0] for pool in pools.values()]
    else:
        pool = workloads.build_pool(args.workload, args.seed, cold_env=dict(os.environ), cwd=root)
        warm_up = pool[:1]
    for case in warm_up:
        _run_op(case)
    # Set-up's objects (numpy, polybohr, the pool) go to the permanent
    # generation, so a full collection during an op costs what the op's own
    # objects cost, not what the benchmark holds.
    gc.freeze()
    print(f"READY {thread_time()!r}", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        result = measure(args.workload, pool, args.seconds)
        result["inputs"] = {
            "pool_cases": len(pool),
            "items_per_cycle": sum(case.items for case in pool),
            "cases": dict(sorted(Counter(case.label for case in pool).items())),
            "sizes": [case.sizes for case in pool if case.sizes],
        }
    else:
        result = trace(pools, args.trace_out)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
