"""polybohr benchmark: cold CLI calls, radius tables, certification grids and the series oracle.

Run from the root of a checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads (each in its own fresh worker process, a closed loop with one client):

  cli_cold  one cold `python -m polybohr ...` subprocess per op; 10 of the 15
            argv lists (radius, table, n/m sweep) need no arrays, 5
            (sharpness, default-grid verify) do
  solve     one in-process polybohr.cli.main table or sweep per op; the item
            is a radius (CSV row)
  certify   verify on a 200x50 or 500x100 grid, sharpness_witness,
            empirical_radius and, on sharp branches, the +1% negative control
            that must exit 2; the item is a verify grid point
  series    the series route against the closed form, then the coefficient
            and zero-order bound checks on the family; the item is a series term

BENCHMARK.json lists solve, certify and series.  cli_cold stays runnable by
hand, but on a shared 2-core host its medians moved between runs by more
than the largest bound allowed (0.25 of the median), and no reference job
tracked cold starts; the import layer it stresses is still timed in the
traced run.

In-process op times (solve, certify, series) are CPU ms at a reference
speed: the worker times a fixed speed kernel before and after each op, and
scales the op's process CPU time by 1 ms over the mean of those two kernel
CPU times (worker.measure).  On a shared host the core's speed moves by up
to 1.7x as other tenants load it, which moved wall-time medians between runs
by as much as the bound, and preemption set the wall-time tail of short ops;
the scaled times move with polybohr's own cost and far less with host load.
cli_cold is timed in wall ms.  The unscaled wall-time figures are printed as
well.

Every output is checked against bench/oracle.py, which never calls polybohr.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, measured
untraced.  Set-up (worker start, `import polybohr`, one warm-up op) is done
seven times and setup_s is the median of the worker main thread's CPU
seconds from process start until ready; the wall times are printed too (on
the shared host a process start's wall time moved between runs by a third,
and by a quarter when another process shared the cores, while the CPU time
held).  latency_ms_p50 is the median op time of each pool cycle averaged
over the cycles, latency_ms_tail the highest sample with at least ten
samples above it, and items_per_s the items done over the summed op time.
With --trace 1 the worker replays one pool cycle of solve, certify and
series untraced and then traced, and the metrics are the per-layer table;
the import layer is timed here as bare `python -c` children.  The traced
run's spans go to bench/out/.

`failed` counts ops whose output disagrees with the oracle, that exit with an
unexpected code or that raise.  A small-weight deriv / sq_deriv draw for which
sharpness_witness raises WitnessNotFoundError is the library's known defect:
it is reported as witness_not_found and in fail_ratio, not in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_cold", "solve", "certify", "series")
ITEM_UNIT = {"cli_cold": "invocations", "solve": "radii", "certify": "grid points",
             "series": "terms"}
SETUP_SAMPLES = 7
IMPORT_ROUNDS = 7
IMPORT_CHILDREN = {
    "import.bare_interp_ms": "pass",
    "import.numpy_ms": "import numpy",
    "import.polybohr_ms": "import polybohr",
}
WORKER_TIMEOUT = 150.0  # seconds; the whole run must end within 180


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start_worker(args, mode, extra=()):
    """Run a worker; return (its stdout after READY, its set-up in main-thread
    CPU seconds, and in wall seconds from spawn until READY)."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode, *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_wall = perf_counter() - t0
        tag, _, setup_cpu = line.partition(" ")
        if tag != "READY":
            raise BenchError(f"worker ({mode}) did not get ready: {line.strip()!r}")
        out = proc.stdout.read()
        if proc.wait() != 0:
            raise BenchError(f"worker ({mode}) exited {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return out, float(setup_cpu), setup_wall


def _result(out):
    for line in out.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise BenchError("worker printed no RESULT line")


def end_to_end(args):
    starts = [_start_worker(args, "setup")[1:] for _ in range(SETUP_SAMPLES - 1)]
    out, *start = _start_worker(args, "measure")
    starts.append(start)
    setups = [cpu for cpu, _ in starts]
    setup_walls = [wall for _, wall in starts]
    res = _result(out)
    unit = ITEM_UNIT[args.workload]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_ms_p50": (res["latency_ms_p50"], "ms"),
        "latency_ms_tail": (res["latency_ms_tail"], "ms"),
        "items_per_s": (res["items_per_s"], "items/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  {res['attempted']} ops in "
          f"{res['cycles']} cycles of {res['inputs']['pool_cases']} cases "
          f"({res['inputs']['items_per_cycle']} {unit} per cycle), {res['wall_s']:.1f} s")
    for name, (value, u) in metrics.items():
        print(f"  {name:<16} {value:14.6f} {u}")
    clock = ("CPU ms at the reference speed, at which the speed kernel takes 1 ms (its median "
             f"here was {res['kernel_ms_p50']:.3f} ms)" if res["reference_speed"] else "wall ms")
    print(f"  {'':<16} times are {clock};")
    print(f"  {'':<16} p50 is the mean of {res['cycles']} per-cycle "
          f"medians (pooled median {res['pooled_p50_ms']:.3f} ms); tail is "
          f"p{res['tail_percentile']:.2f} of {res['attempted']} samples;")
    print(f"  {'':<16} items are {unit}; set-ups {', '.join(f'{s:.3f}' for s in setups)} "
          f"CPU s, {', '.join(f'{s:.3f}' for s in setup_walls)} wall s")
    print(f"  {'':<16} unscaled: p50 {res['wall_latency_ms_p50']:.3f} wall ms, tail "
          f"{res['wall_latency_ms_tail']:.3f} wall ms, {res['wall_items_per_s']:.1f} {unit}/wall s")
    print(f"  {'fail_ratio':<16} {res['fail_ratio']:14.6f} 1  "
          f"({res['failed']} failed, {res['witness_not_found']} witness_not_found)")
    print(f"  {'max_rel_err':<16} {res['max_rel_err']:14.3e} 1")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "item_unit": unit, "setups_s": setups,
                                  "setup_walls_s": setup_walls, **res}))
    return res, {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def _time_child(code, env):
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return (perf_counter() - t0) * 1e3


def layers(args):
    env = _env()
    samples = {name: [] for name in IMPORT_CHILDREN}
    for _ in range(IMPORT_ROUNDS):  # interleaved, so machine load drifts hit all three alike
        for name, code in IMPORT_CHILDREN.items():
            samples[name].append(_time_child(code, env))
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    out, *_ = _start_worker(args, "trace", ("--trace-out", str(trace_path)))
    res = _result(out)
    values = {name: statistics.median(s) for name, s in samples.items()}
    values.update(res["metrics"])
    metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}
    print(f"traced pass: {res['attempted']} ops (one cycle each of solve, certify, series), "
          f"{res['spans']} spans -> {trace_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:16.6f} {m['unit']}")
    print(f"  majorant_functional.calls self-check: "
          f"{'ok' if res['self_check'] else 'FAILED'} "
          f"(expected {res['majorant_calls_expected']})")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    return res, metrics


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "polybohr" / "__init__.py").is_file():
        print(f"error: no polybohr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res, metrics = layers(args) if args.trace else end_to_end(args)
    except (BenchError, subprocess.SubprocessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = res["failed"] == 0 and res.get("self_check", True)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
