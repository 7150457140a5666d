"""The benchmark matrix runner: (instance x strategy) pairs to CSV.

Every pair runs in an isolated worker process with a cooperative time budget
plus a watchdog that terminates stragglers; a killed or crashed run becomes
an UNKNOWN row that carries the error and never aborts the matrix.  Alongside
the per-run CSV a cactus CSV is written: for each strategy the cumulative
solved count against the per-run time, sorted ascending.
"""

from __future__ import annotations

import csv
import multiprocessing as mp
import sys
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import IO, Sequence

from .opb import UNKNOWN, parse_opb
from .solver import SolverConfig, SolverStats, solve

CSV_HEADER = (
    "instance,strategy,status,seconds,conflicts,decisions,propagations,"
    "learned,max_coeff_bits,fallbacks"
)

#: Extra wall-clock seconds granted beyond the timeout before a worker is killed.
GRACE_SECONDS = 5.0
#: The longest single wait for a worker; ``wait`` rejects infinity and more than 2**31 ms.
MAX_WAIT_SECONDS = 60.0


@dataclass
class BenchRecord:
    instance: str
    strategy: str
    status: str
    #: The solver's counters and time; a crashed or killed run has only ``seconds``.
    stats: SolverStats
    #: Why the run crashed or was killed; not written to the CSV.
    error: str | None = None
    #: Why the run's trace could not be written; not written to the CSV.
    trace_error: str | None = None

    def row(self) -> list[str]:
        st = self.stats
        counters = (st.conflicts, st.decisions, st.propagations, st.learned, st.max_coeff_bits, st.fallbacks)
        return [self.instance, self.strategy, self.status, f"{st.seconds:.3f}", *map(str, counters)]


def run_one(
    path: str | Path,
    strategy: str,
    timeout: float | None,
    trace_path: str | Path | None = None,
) -> BenchRecord:
    """Solve one file with one strategy; an exception becomes an UNKNOWN record.

    The trace is written after the solve: a trace that cannot be written
    leaves the record's status and counters and sets its ``trace_error``.
    """
    name = Path(path).name
    start = time.monotonic()
    try:
        with open(path, "r", encoding="ascii") as f:
            instance = parse_opb(f, name=name)
        config = SolverConfig(
            strategy=strategy,
            time_budget=timeout,
            emit_trace=trace_path is not None,
        )
        result = solve(instance, config)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return BenchRecord(name, strategy, UNKNOWN, SolverStats(seconds=time.monotonic() - start), error)
    record = BenchRecord(name, strategy, result.status, result.stats)
    if trace_path is not None and result.trace is not None:
        try:
            result.trace.write_file(trace_path)
        except OSError as exc:
            record.trace_error = f"cannot write {trace_path}: {exc.strerror or exc}"
    return record


def _worker(task, conn):
    # Weights are unbounded; see the same lift in ``cli.main``.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    conn.send(run_one(*task[1:]))


def run_matrix(
    paths: Sequence[str | Path],
    strategies: Sequence[str],
    timeout: float | None,
    jobs: int = 1,
    trace_dir: str | Path | None = None,
) -> list[BenchRecord]:
    """Run every (instance, strategy) pair in up to ``jobs`` worker processes.

    Rows come back in matrix order.  The settings are checked once, by
    building each strategy's :class:`SolverConfig`, before any worker starts;
    a bad one raises ValueError, as does a strategy or a file stem given twice
    (its runs would share a trace path).  Only then is ``trace_dir`` created.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for i, strategy in enumerate(strategies):
        SolverConfig(strategy=strategy, time_budget=timeout)
        if strategy in strategies[:i]:
            raise ValueError(f"strategy {strategy} is given more than once")
    tasks, stems = [], set()
    for path in sorted(paths, key=lambda p: Path(p).name):
        stem = Path(path).stem
        if stem in stems:
            raise ValueError(f"instance stem {stem} is given more than once")
        stems.add(stem)
        for strategy in strategies:
            trace_path = None
            if trace_dir is not None:
                trace_path = Path(trace_dir) / f"{stem}.{strategy}.trace"
            tasks.append((len(tasks), path, strategy, timeout, trace_path))
    if trace_dir is not None:
        Path(trace_dir).mkdir(parents=True, exist_ok=True)

    results: dict[int, BenchRecord] = {}
    waiting = list(reversed(tasks))
    # Each worker sends its record down a pipe of its own, or closes it unsent if it crashes.
    running: dict[Connection, tuple[mp.Process, float, tuple]] = {}
    limit = None if timeout is None else timeout + GRACE_SECONDS
    while waiting or running:
        while waiting and len(running) < jobs:
            task = waiting.pop()
            reader, writer = mp.Pipe(duplex=False)
            proc = mp.Process(target=_worker, args=(task, writer), daemon=True)
            proc.start()
            writer.close()
            running[reader] = (proc, time.monotonic(), task)
        first = min(started for _, started, _ in running.values())
        left = None if limit is None else min(max(0.0, first + limit - time.monotonic()), MAX_WAIT_SECONDS)
        ready = wait(list(running), left)
        now = time.monotonic()
        for reader, (proc, started, task) in list(running.items()):
            if reader in ready:
                try:
                    results[task[0]] = reader.recv()
                    error = None
                except EOFError:
                    proc.join()
                    error = f"worker exited with code {proc.exitcode}"
            elif limit is not None and now - started > limit:
                proc.terminate()
                error = f"killed after {now - started:.1f} s"
            else:
                continue
            proc.join()
            reader.close()
            del running[reader]
            if error is not None:
                results[task[0]] = BenchRecord(
                    Path(task[1]).name, task[2], UNKNOWN, SolverStats(seconds=now - started), error
                )
    return [results[i] for i in range(len(tasks))]


def write_csv(records: Sequence[BenchRecord], stream: IO[str]) -> None:
    stream.write(CSV_HEADER + "\n")
    writer = csv.writer(stream, lineterminator="\n")
    for record in records:
        writer.writerow(record.row())


def write_cactus_csv(records: Sequence[BenchRecord], stream: IO[str]) -> None:
    """Per strategy: cumulative solved count versus ascending solve time."""
    stream.write("strategy,solved,seconds\n")
    writer = csv.writer(stream, lineterminator="\n")
    strategies = sorted({r.strategy for r in records})
    for strategy in strategies:
        times = sorted(
            r.stats.seconds for r in records if r.strategy == strategy and r.status != UNKNOWN
        )
        for count, seconds in enumerate(times, start=1):
            writer.writerow([strategy, str(count), f"{seconds:.3f}"])
