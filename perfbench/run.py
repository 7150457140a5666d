#!/usr/bin/env python3
"""The pbsolve benchmark: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload php-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; pbsolve is imported from its ``src``
directory and from nowhere else.  With ``--trace 0`` the job list is solved
in as many passes as fit ``--seconds`` at the reference machine's usual speed (see
``workloads.passes``), and timings are stated at its undisturbed speed (see
``reference_loop``) as medians over the passes.  With ``--trace 1`` every
job runs once untraced and once traced, and the per-layer metrics come from
spans recorded around pbsolve's entry points (see ``spans.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every job is run sequentially in this one process.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = HERE / "fingerprints.json"

#: Jobs not finished this many seconds after start fail, so a run ends
#: within 180 s whatever the program does.
RUN_WALL_LIMIT = 150.0
#: Set-up is cheap next to solving, so it is repeated and its median taken.
SETUP_ROUNDS = 3
#: Seconds :func:`reference_loop` takes on a shared 2-core x86_64 VM with
#: CPython 3.11 when nothing else contends for the machine (its fast mode;
#: under contention it takes about 5 ms).
REFERENCE_SECONDS = 0.0028

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "conflicts_per_s": "1/s",
    "solved": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "opb.parse_s": "s",
    "opb.bytes": "bytes",
    "solver.init_s": "s",
    "solver.search_self_s": "s",
    "solver.analyze_s": "s",
    "solver.analyze_self_s": "s",
    "solver.decide_s": "s",
    "solver.decisions": "count",
    "solver.reduce_db_s": "s",
    "solver.reduce_db_calls": "count",
    "solver.conflicts": "count",
    "solver.learned": "count",
    "solver.restarts": "count",
    "propagation.propagate_s": "s",
    "propagation.propagate_calls": "count",
    "propagation.backjump_s": "s",
    "propagation.backjump_calls": "count",
    "propagation.add_constraint_s": "s",
    "propagation.assignments": "count",
    "propagation.assignments_per_s": "1/s",
    "analysis.resolve_s": "s",
    "analysis.resolve_self_s": "s",
    "analysis.resolve_steps": "count",
    "analysis.steps_per_conflict": "ratio",
    "analysis.fallbacks": "count",
    "analysis.fallback_ratio": "ratio",
    "analysis.max_coeff_bits": "bits",
    "core.rule_s": "s",
    "core.rule_calls": "count",
    "core.cancel_calls": "count",
    "trace.record_s": "s",
    "trace.steps": "count",
    "trace.write_s": "s",
    "trace.bytes": "bytes",
    "trace.read_s": "s",
    "trace.verify_s": "s",
    "trace.steps_replayed": "count",
    "bench.trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here: pbsolve's sources are missing."""


class WallLimit(Exception):
    """A job was still running when the run's wall limit passed."""


class Watchdog:
    """Raises WallLimit in the running job once the run's deadline passes."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise WallLimit(f"run wall limit of {RUN_WALL_LIMIT:.0f} s exceeded")

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, max(self.remaining(), 0.001))

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


class Pb:
    """pbsolve's modules, imported from this checkout's sources only."""

    def __init__(self):
        if not (SRC / "pbsolve" / "__init__.py").is_file():
            raise BenchError(f"no pbsolve sources under {SRC}")
        sys.path.insert(0, str(SRC))
        before = reference_loop()
        started = time.perf_counter()
        import pbsolve
        from pbsolve import opb, solver, trace

        self.import_s = time.perf_counter() - started
        self.import_slowdown = (before + reference_loop()) / 2 / REFERENCE_SECONDS
        if Path(pbsolve.__file__).resolve().parent != SRC / "pbsolve":
            raise BenchError(f"imported pbsolve from {pbsolve.__file__}, not from {SRC}")
        self.opb, self.solver, self.trace = opb, solver, trace

    def load(self, job: wl.Job):
        """Parse the job's OPB text and construct its solver, as the CLI does."""
        instance = self.opb.parse_opb(job.instance.opb, name=job.instance.name)
        config = self.solver.SolverConfig(
            strategy=job.strategy,
            conflict_budget=job.conflict_budget,
            emit_trace=job.emit_trace,
        )
        return instance, self.solver.Solver(instance, config)


@dataclass
class JobRun:
    job: wl.Job
    status: str = "ERROR"
    solve_s: float = 0.0
    #: The whole job as a user waits for it: parse, construct, solve, trace
    #: write/read/verify and the answer checks.
    wall_s: float = 0.0
    #: Reference-loop time around the job over its undisturbed time.
    slowdown: float = 1.0
    stats: object = None
    error: str | None = None
    trace_bytes: int = 0
    steps_replayed: int = 0

    @property
    def fingerprint(self) -> list:
        s = self.stats
        if s is None:
            return [self.status]
        return [self.status, s.conflicts, s.decisions, s.propagations, s.learned]

    @property
    def solved(self) -> bool:
        return self.error is None and self.status in ("SAT", "UNSAT")


def run_job(pb: Pb, job: wl.Job) -> JobRun:
    run = JobRun(job)
    instance, solver = pb.load(job)
    started = time.perf_counter()
    result = solver.solve()
    run.solve_s = time.perf_counter() - started
    run.status, run.stats = result.status, result.stats
    if result.status == "SAT":
        if job.instance.unsat:
            run.error = "SAT answer on an instance unsatisfiable by construction"
        elif not wl.model_satisfies(job.instance, result.model):
            run.error = "the SAT model violates a written row"
    if job.emit_trace:
        path = OUT / f"{job.name.replace('/', '.')}.trace"
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            result.trace.write_file(path)
            run.trace_bytes = path.stat().st_size
            recorded = pb.trace.DerivationTrace.read_file(path)
        finally:
            path.unlink(missing_ok=True)
        check = pb.trace.verify_trace(instance, recorded)
        run.steps_replayed = check.steps_checked
        if not check:
            run.error = f"trace rejected: {check.error}"
        elif result.status == "UNSAT" and recorded.final is None:
            run.error = "UNSAT trace declares no final conflict, so the claim is unchecked"
    return run


def run_guarded(pb: Pb, job: wl.Job, watchdog: Watchdog, tracer=None) -> JobRun:
    """Run one job; one that raises or overruns is a failure, never UNKNOWN."""
    if watchdog.remaining() <= 0:
        return JobRun(job, error="not started: run wall limit reached")
    try:
        watchdog.arm()
        if tracer is None:
            run = run_job(pb, job)
        else:
            run = tracer.call("bench.job", run_job, pb, job)
        watchdog.disarm()
    except Exception as exc:
        watchdog.disarm()
        run = JobRun(job, error=f"{type(exc).__name__}: {exc}")
    return run


def cross_check(runs: list[JobRun]) -> None:
    """An UNSAT answer is wrong when another strategy's model was verified."""
    proven_sat = {r.job.instance.name for r in runs if r.status == "SAT" and r.error is None}
    for r in runs:
        if r.status == "UNSAT" and r.error is None and r.job.instance.name in proven_sat:
            r.error = "UNSAT, but another strategy found a verified model"


def reference_loop() -> float:
    """Seconds a fixed pure-Python computation takes now; pbsolve is not involved.

    Other tenants of a shared machine slow everything down by up to about
    80 % for seconds to minutes at a time (the same pbsolve pass took 5.0 s in
    one process and 7.0 s in the next).  Timing this loop between jobs
    measures that slowdown, so the end-to-end timings can be stated at the
    machine's undisturbed speed.  The garbage collector is off so that the
    loop's time does not depend on how many objects the previous job left
    alive.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict[int, int] = {}
        x = 12345
        for i in range(8000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            k = x % 509
            table[k] = table.get(k, 0) + (i if x & 1 else -i)
        sorted(table.items(), key=lambda kv: kv[1])
        return time.perf_counter() - started
    finally:
        gc.enable()


def run_pass(pb: Pb, jobs: list[wl.Job], watchdog: Watchdog) -> list[JobRun]:
    """Solve every job once, timing the reference loop between jobs."""
    runs = []
    reference = [reference_loop()]
    for job in jobs:
        started = time.perf_counter()
        run = run_guarded(pb, job, watchdog)
        run.wall_s = time.perf_counter() - started
        runs.append(run)
        reference.append(reference_loop())
    for j, run in enumerate(runs):
        run.slowdown = slowdown_around(runs, reference, j)
    cross_check(runs)
    return runs


def slowdown_around(runs: list[JobRun], reference: list[float], j: int) -> float:
    """Mean reference-loop slowdown over a stretch at least as long as job ``j``.

    ``reference[i]`` was timed just before job ``i`` and ``reference[i + 1]``
    just after it.  A short job is judged by the few samples next to it; a
    job that ran for seconds by as many neighbouring samples as cover that
    long, since the machine's speed changes while it runs.
    """
    lo, hi, span = j, j + 1, 0.0
    while span < runs[j].wall_s and (lo > 0 or hi < len(runs)):
        if lo > 0:
            lo -= 1
            span += runs[lo].wall_s
        if hi < len(runs):
            span += runs[hi].wall_s
            hi += 1
    return statistics.mean(reference[lo : hi + 1]) / REFERENCE_SECONDS


def run_traced(pb: Pb, jobs: list[wl.Job], watchdog: Watchdog, tracer):
    """Each job untraced and traced, back to back in alternating order.

    Interleaving puts both runs of a job in the same stretch of machine
    speed, so the overhead ratio is not swamped by drift between passes.
    Returns the untraced runs, the traced runs and the seconds each took.
    """
    from spans import entry_points

    points = entry_points()
    runs = ([], [])
    seconds = [0.0, 0.0]
    for k, job in enumerate(jobs):
        for traced in (k % 2, 1 - k % 2):
            started = time.perf_counter()
            if traced:
                with tracer.installed(points):
                    run = run_guarded(pb, job, watchdog, tracer)
            else:
                run = run_guarded(pb, job, watchdog)
            seconds[traced] += time.perf_counter() - started
            runs[traced].append(run)
    for r in runs:
        cross_check(r)
    return runs[0], runs[1], seconds[0], seconds[1]


def setup_round(pb: Pb, jobs: list[wl.Job]) -> float:
    """Seconds to parse and construct every job, at the machine's undisturbed speed."""
    before = reference_loop()
    started = time.perf_counter()
    for job in jobs:
        pb.load(job)
    seconds = time.perf_counter() - started
    return seconds / ((before + reference_loop()) / 2 / REFERENCE_SECONDS)


def tail(times: list[float]) -> tuple[float, str]:
    """The slowest time with at least ten jobs beyond it.

    Below 21 jobs that time would not even be above the median, so the
    slowest job is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.0f}: 10 of {n} jobs are slower"
    return ordered[-1], f"slowest of {n} jobs"


def end_to_end(pb: Pb, jobs, passes: list[list[JobRun]], setup: list[float]) -> tuple[dict, list[str]]:
    """Timings in seconds at the machine's undisturbed speed (see reference_loop).

    Each job's time is divided by the slowdown measured right around it, and
    the median over passes is taken.
    """
    first = passes[0]

    def usual(j: int, attr: str) -> float:
        return statistics.median(getattr(p[j], attr) / p[j].slowdown for p in passes)

    job_times = [usual(j, "solve_s") for j in range(len(jobs))]
    solve_s = sum(job_times)
    timed_s = sum(statistics.median(p[j].solve_s for p in passes) for j in range(len(jobs)))
    slowdown = statistics.median(r.slowdown for p in passes for r in p)
    conflicts = sum(r.stats.conflicts for r in first if r.stats is not None)
    tail_s, tail_note = tail(job_times)
    metrics = {
        "setup_s": pb.import_s / pb.import_slowdown + statistics.median(setup),
        "solve_s": solve_s,
        "wall_s": sum(usual(j, "wall_s") for j in range(len(jobs))),
        "job_p50_s": statistics.median(job_times),
        "job_tail_s": tail_s,
        "conflicts_per_s": conflicts / solve_s if solve_s else 0.0,
        "solved": sum(r.solved for r in first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"import {pb.import_s:.4f} s + median of {len(setup)} parse+construct rounds",
        "solve_s": f"{len(jobs)} jobs x {len(passes)} passes; {timed_s:.4f} s as timed, "
        f"median slowdown {slowdown:.3f}",
        "wall_s": "with parsing, trace write/read/verify and answer checks",
        "job_tail_s": tail_note,
        "conflicts_per_s": f"{conflicts} conflicts per pass",
        "solved": f"of {len(jobs)} jobs",
    }
    return metrics, [notes.get(name, "") for name in metrics]


def per_layer(summary, runs: list[JobRun], overhead: float) -> dict:
    def total(name):
        return summary.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return summary.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return summary.get(name, (0.0, 0.0, 0))[2]

    stats = [r.stats for r in runs if r.stats is not None]
    conflicts = sum(s.conflicts for s in stats)
    steps = calls("analysis.resolve")
    assignments = sum(s.propagations for s in stats)
    fallbacks = sum(s.fallbacks for s in stats)
    from spans import CORE_RULES

    rules = [f"core.{rule}" for rule in CORE_RULES]
    return {
        "opb.parse_s": total("opb.parse"),
        "opb.bytes": sum(len(r.job.instance.opb) for r in runs if r.stats is not None),
        "solver.init_s": total("solver.init"),
        "solver.search_self_s": own("solver.solve"),
        "solver.analyze_s": total("solver.analyze"),
        "solver.analyze_self_s": own("solver.analyze"),
        "solver.decide_s": total("solver.decide"),
        "solver.decisions": calls("solver.decide"),
        "solver.reduce_db_s": total("solver.reduce_db"),
        "solver.reduce_db_calls": calls("solver.reduce_db"),
        "solver.conflicts": conflicts,
        "solver.learned": sum(s.learned for s in stats),
        "solver.restarts": sum(s.restarts for s in stats),
        "propagation.propagate_s": total("propagation.propagate"),
        "propagation.propagate_calls": calls("propagation.propagate"),
        "propagation.backjump_s": total("propagation.backjump"),
        "propagation.backjump_calls": calls("propagation.backjump"),
        "propagation.add_constraint_s": total("propagation.add_constraint"),
        "propagation.assignments": assignments,
        "propagation.assignments_per_s": assignments / total("propagation.propagate")
        if total("propagation.propagate")
        else 0.0,
        "analysis.resolve_s": total("analysis.resolve"),
        "analysis.resolve_self_s": own("analysis.resolve"),
        "analysis.resolve_steps": steps,
        "analysis.steps_per_conflict": steps / conflicts if conflicts else 0.0,
        "analysis.fallbacks": fallbacks,
        "analysis.fallback_ratio": fallbacks / steps if steps else 0.0,
        "analysis.max_coeff_bits": max((s.max_coeff_bits for s in stats), default=0),
        "core.rule_s": sum(total(name) for name in rules),
        "core.rule_calls": sum(calls(name) for name in rules),
        "core.cancel_calls": calls("core.cancel"),
        "trace.record_s": total("trace.record"),
        "trace.steps": calls("trace.record"),
        "trace.write_s": total("trace.write"),
        "trace.bytes": sum(r.trace_bytes for r in runs),
        "trace.read_s": total("trace.read"),
        "trace.verify_s": total("trace.verify"),
        "trace.steps_replayed": sum(r.steps_replayed for r in runs),
        "bench.trace_overhead_ratio": overhead,
    }


def fingerprint_key(workload: str, seed: int) -> str:
    return str(seed) if workload in wl.SEEDED_INPUTS else "any"


def compare_fingerprints(workload: str, seed: int, current: dict) -> list[str]:
    """Drift against the stored counters, one line per job that changed."""
    if not FINGERPRINTS.is_file():
        return ["no stored fingerprints"]
    stored = json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(fingerprint_key(workload, seed))
    if stored is None:
        return [f"no stored fingerprints for seed {seed}"]
    lines = []
    for name in sorted(set(stored) | set(current)):
        if stored.get(name) != current.get(name):
            lines.append(f"drift {name}: stored {stored.get(name)} now {current.get(name)}")
    return lines or [f"all {len(current)} job fingerprints match the stored ones"]


def record_fingerprints(workload: str, seed: int, current: dict) -> None:
    data = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    data.setdefault(workload, {})[fingerprint_key(workload, seed)] = current
    # One line per job, so a drift shows as a one-line diff.
    text = json.dumps(data, indent=1, sort_keys=True)
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    FINGERPRINTS.write_text(text + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(wl.SCALES), default="full")
    p.add_argument("--fingerprints-out", type=Path, help="write this run's job fingerprints as JSON")
    p.add_argument("--record-fingerprints", action="store_true", help="store them as the reference")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.record_fingerprints and args.scale != "full":
        p.error("only full-scale fingerprints are stored")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    try:
        pb = Pb()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: cannot import pbsolve: {exc}", file=sys.stderr)
        return 2
    watchdog = Watchdog(started + RUN_WALL_LIMIT)
    jobs = wl.jobs_for(args.workload, args.seed, args.scale)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: {len(jobs)} jobs", flush=True)

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        untraced_runs, traced_runs, untraced, traced = run_traced(pb, jobs, watchdog, tracer)
        passes = [untraced_runs, traced_runs]
        tracer.write(OUT / f"spans-{args.workload}.npz")
        metrics = per_layer(tracer.summary(exclude_under="trace.verify"), traced_runs, traced / untraced)
        units, notes = PER_LAYER, [""] * len(metrics)
        print(f"untraced jobs {untraced:.3f} s, traced jobs {traced:.3f} s", flush=True)
    else:
        setup = [setup_round(pb, jobs) for _ in range(SETUP_ROUNDS)]
        passes = [run_pass(pb, jobs, watchdog) for _ in range(wl.passes(args.workload, args.scale, args.seconds))]
        metrics, notes = end_to_end(pb, jobs, passes, setup)
        units = END_TO_END

    runs = [r for p in passes for r in p]
    current = {r.job.name: r.fingerprint for r in passes[0]}
    for p in passes[1:]:
        for r in p:
            if r.error is None and r.fingerprint != current[r.job.name]:
                r.error = f"counters {r.fingerprint} differ from the first pass {current[r.job.name]}"
    failures = [r for r in runs if r.error is not None]
    for r in failures:
        print(f"FAILED {r.job.name}: {r.error}", file=sys.stderr, flush=True)

    for (name, value), note in zip(metrics.items(), notes):
        print(f"{name:30s} {value:14.6g} {units[name]:6s} {note}", flush=True)
    print(f"failed {len(failures)} of {len(runs)} job runs (share {len(failures) / len(runs):.4f})", flush=True)
    if args.scale == "full":
        for line in compare_fingerprints(args.workload, args.seed, current):
            print(f"fingerprints: {line}", flush=True)
    if args.record_fingerprints and not failures:
        record_fingerprints(args.workload, args.seed, current)
    if args.fingerprints_out is not None:
        args.fingerprints_out.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
