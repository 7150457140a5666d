#!/usr/bin/env python3
"""Interleaved A/B timing of this tree's pbsolve against a git revision's, in one process.

    python3 experiments/ab.py REV [--workload W] [--seed S] [--sessions K] [--json PATH]

``git archive REV src/pbsolve`` is unpacked into a temporary directory as
the package ``pbsolve_base`` (the package imports itself only relatively, so
it loads under that name) and imported beside the working tree's
``pbsolve``.  The job list is perfbench's, ``workloads.jobs_for(W, S)``,
imported and not edited.  In each session every job runs once under each
package, the order alternating from job to job and from session to
session; each solve is timed alone, after a ``gc.collect()``, with parsing
and solver construction untimed.  Both packages must give a job the same
status and counters (conflicts, decisions, propagations, learned); the
first difference stops the run with exit 1.

A job's ratio is its time under this tree over its time under REV, so a
ratio above 1 means this tree is slower.  Each session prints the total
ratio, the median job ratio with its quartiles, and how many jobs each side
solved faster.  The median job ratio weights every job alike, short ones
included, so it detects a small per-step cost more reliably than it sizes
one.  Both copies share one allocator and one collector, and the tool sees
no import time, setup or peak memory: it adds evidence to perfbench's
alternating processes and does not replace them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # perfbench's job lists, imported read-only


def unpack(rev: str, into: Path) -> None:
    """Write REV's ``src/pbsolve`` to ``into / "pbsolve_base"``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/pbsolve"],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    (into / "src" / "pbsolve").rename(into / "pbsolve_base")


def load(package) -> tuple:
    """A package's ``(parse_opb, SolverConfig, Solver)``."""
    opb = importlib.import_module(f"{package}.opb")
    solver = importlib.import_module(f"{package}.solver")
    return opb.parse_opb, solver.SolverConfig, solver.Solver


def timed_solve(side, job: wl.Job) -> tuple[float, list]:
    """Parse and construct untimed, then time one solve; returns seconds and the job's counters."""
    parse_opb, config, solver = side
    instance = parse_opb(job.instance.opb, name=job.instance.name)
    run = solver(
        instance,
        config(strategy=job.strategy, conflict_budget=job.conflict_budget, emit_trace=job.emit_trace),
    )
    gc.collect()
    started = time.perf_counter()
    result = run.solve()
    seconds = time.perf_counter() - started
    s = result.stats
    return seconds, [result.status, s.conflicts, s.decisions, s.propagations, s.learned]


def session(base, change, jobs: list[wl.Job], flip: int) -> dict:
    """Run every job under both sides, alternating which goes first; returns the session's summary."""
    base_s, change_s = [], []
    for j, job in enumerate(jobs):
        if (j + flip) % 2 == 0:
            (b, base_counters), (c, change_counters) = timed_solve(base, job), timed_solve(change, job)
        else:
            (c, change_counters), (b, base_counters) = timed_solve(change, job), timed_solve(base, job)
        if base_counters != change_counters:
            raise SystemExit(f"ab: {job.name}: counters differ: REV {base_counters}, tree {change_counters}")
        base_s.append(b)
        change_s.append(c)
    ratios = [c / b for b, c in zip(base_s, change_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "jobs": len(jobs),
        "base_s": sum(base_s),
        "change_s": sum(change_s),
        "total_ratio": sum(change_s) / sum(base_s),
        "median_job_ratio": median,
        "job_ratio_quartiles": [q1, q3],
        "change_faster": sum(c < b for b, c in zip(base_s, change_s)),
        "base_faster": sum(b < c for b, c in zip(base_s, change_s)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("rev", help="the git revision to compare against, e.g. HEAD~1")
    p.add_argument("--workload", choices=wl.WORKLOADS, default="random-search")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sessions", type=int, default=3)
    p.add_argument("--json", type=Path, help="also write the sessions as JSON")
    args = p.parse_args(argv)
    if args.sessions < 1:
        p.error("--sessions must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = wl.jobs_for(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        try:
            unpack(args.rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"ab: cannot unpack {args.rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        sys.path.insert(0, tmp)
        base, change = load("pbsolve_base"), load("pbsolve")
        print(f"ab: {args.workload} seed {args.seed}: {len(jobs)} jobs, tree against {args.rev}", flush=True)
        sessions = []
        for k in range(args.sessions):
            s = session(base, change, jobs, k)
            sessions.append(s)
            q1, q3 = s["job_ratio_quartiles"]
            print(
                f"session {k + 1}: total {s['change_s']:.3f} s / {s['base_s']:.3f} s = {s['total_ratio']:.4f}, "
                f"median job ratio {s['median_job_ratio']:.4f} (quartiles {q1:.4f}-{q3:.4f}), "
                f"tree faster in {s['change_faster']}, REV faster in {s['base_faster']} of {s['jobs']}",
                flush=True,
            )
    if args.json is not None:
        report = {"rev": args.rev, "workload": args.workload, "seed": args.seed, "sessions": sessions}
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
