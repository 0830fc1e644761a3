#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1-10            # every workload
    python3 perfbench/collect.py --workload large-int64 --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --baseline perfbench/baseline.json

Runs run.py one at a time and prints, per workload and metric, the median,
the quartiles and the spread (q3 - q1) / median, which BENCHMARK.json's
bound must exceed. --baseline also runs one traced run per workload and
writes the medians, the per-layer numbers and the machine to that file.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(results, spec) -> dict:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0,
            "bound": bounds.get(name),
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


def parse_seeds(text) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", help="repeatable; default every workload")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--baseline", type=Path, help="write medians, trace and machine here")
    args = p.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {}
    ok = True
    for name in names:
        results = [run_once(name, s, args.seconds, 0) for s in seeds]
        ok = ok and all(r["correct"] for r in results)
        report[name] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": summarize(results, spec),
        }
        for metric, s in report[name]["metrics"].items():
            flag = ""
            if s["bound"] is not None and metric != "setup_s" and s["spread"] >= s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{name:<12} {metric:<26} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
            print("    runs: " + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)

    if args.baseline:
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        baseline = {
            "machine": machine(),
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "workloads": {
                name: {
                    "why": why[name],
                    "end_to_end": report[name]["metrics"],
                    "per_layer": run_once(name, seeds[0], args.seconds, 1)["metrics"],
                }
                for name in names
            },
        }
        args.baseline.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
