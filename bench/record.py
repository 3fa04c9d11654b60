"""Run the benchmark over several seeds and record medians, quartiles and spreads.

    python3 bench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 --out bench/baseline.json

For every workload it runs bench/run.py once per seed (--trace 0), then the
traced run on --trace-seeds, and writes one JSON file with, per end-to-end
metric, the values, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json;
the per-layer table (median over the traced runs); which end-to-end metric
each layer metric should move; and the machine it ran on.  Runs are
sequential: the benchmark measures one client on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# layer metric -> the end-to-end metrics (on the named workload) it should move
LAYER_MAP = {
    "import.bare_interp_ms": "machine baseline for latency_ms_p50, setup_s on cli_cold",
    "import.numpy_ms": "latency_ms_p50, setup_s on cli_cold",
    "import.polybohr_ms": "latency_ms_p50, setup_s on cli_cold",
    "cli.main.*": "items_per_s on solve; latency_ms_p50 on certify",
    "radii.*": "items_per_s on solve",
    "extremal.majorant_functional.*, extremal.sharpness_witness.*, "
    "extremal.empirical_radius.busy_s": "latency_ms_p50, items_per_s on certify",
    "extremal.extremal_functional_from_series.*, extremal.extremal_series.busy_s":
        "latency_ms_p50 on series",
    "mvseries.*": "items_per_s on series",
    "bounds.*": "latency_ms_tail on series",
    "trace.overhead_ratio": "none; the cost of tracing",
}


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), None)
    return json.loads(lines[-1]), report


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def _machine():
    try:
        numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                       capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seeds", default="1,2,3")
    ap.add_argument("--out", default=None, help="write the record here (JSON)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    record = {"machine": _machine(), "run_seconds": args.seconds, "seeds": seeds,
              "workloads": {}, "per_layer": {}, "layer_map": LAYER_MAP}
    for workload in args.workloads.split(","):
        values, extra = {}, {"fail_ratio": [], "max_rel_err": [], "attempted": [],
                             "tail_percentile": [], "kernel_ms_p50": [],
                             "wall_latency_ms_p50": [], "setup_wall_s": []}
        for seed in seeds:
            result, report = _run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output: {report['problems']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            report["setup_wall_s"] = statistics.median(report["setup_walls_s"])
            for key in extra:
                extra[key].append(report[key])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
        metrics = {}
        for name, vals in values.items():
            metrics[name] = {"unit": units[name], "bound": bounds[name], **_summary(vals)}
            print(f"  {name:<16} median {metrics[name]['median']:12.5g}  spread "
                  f"{metrics[name]['spread']:.4f}  (bound {bounds[name]})", flush=True)
        record["workloads"][workload] = {"metrics": metrics, **extra,
                                         "inputs": report["inputs"]}

    layer_values = {}
    for seed in [int(s) for s in args.trace_seeds.split(",") if s]:
        result, _ = _run(spec["workloads"][0]["name"], seed, args.seconds, 1)
        if not result["correct"]:
            raise SystemExit(f"traced run seed {seed} failed its checks")
        for name, m in result["metrics"].items():
            layer_values.setdefault(name, []).append(m["value"])
    for name, vals in layer_values.items():
        record["per_layer"][name] = {"unit": units[name], "median": statistics.median(vals),
                                     "values": vals}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
