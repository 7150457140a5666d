#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads php-ladder,random-search --seeds 1-10

For every workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  ``--write-baseline`` stores the figures in
``perfbench/baseline.json``.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int, record: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if record:
        cmd.append("--record-fingerprints")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-baseline", action="store_true")
    p.add_argument("--record-fingerprints", action="store_true", help="store each run's job counters")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds_of(args.seeds):
            r = run_once(workload, seed, seconds, args.trace, args.record_fingerprints)
            print(f"{workload} seed {seed}: correct={r['correct']} failed={r['failed']} "
                  f"elapsed {r['elapsed_s']:.1f} s", flush=True)
            results.append(r)
        metrics = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            metrics[name] = s
            bound = bounds.get(name)
            mark = "" if bound is None else f" bound {bound:.2f}" + (
                "  ok" if s["spread"] < bound / 3 else "  WIDE"
            )
            print(f"  {name:30s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}{mark}", flush=True)
        report[workload] = {
            "seeds": seeds_of(args.seeds),
            "all_correct": all(r["correct"] for r in results),
            "max_elapsed_s": max(r["elapsed_s"] for r in results),
            "metrics": metrics,
        }
    if args.write_baseline:
        data = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        data["machine"] = f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}"
        data.setdefault("trace" if args.trace else "end_to_end", {}).update(report)
        BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
