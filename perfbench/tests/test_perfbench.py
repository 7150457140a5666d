"""Self-test of the benchmark, on the tiny version of every workload.

    python3 -m pytest perfbench/tests -q

Each workload runs once untraced and once traced as the benchmark command
would, plus a few in-process checks of the answer checking.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """workload -> trace flag -> (stdout, result JSON, fingerprints)."""
    tmp = tmp_path_factory.mktemp("fingerprints")
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            fp = tmp / f"{workload}-{trace}.json"
            proc = bench(
                ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny", "--fingerprints-out", str(fp),
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            out.setdefault(workload, {})[trace] = (proc.stdout, result, json.loads(fp.read_text()))
    return out


def test_spec_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_end_to_end_metric_is_reported_with_its_unit(results, workload):
    stdout, result, _ = results[workload][0]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and unit in line.split() for line in stdout.splitlines())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_per_layer_metric_is_reported_with_its_unit(results, workload):
    _, result, _ = results[workload][1]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_fingerprints_repeat_across_runs(results, workload):
    untraced, traced = results[workload][0][2], results[workload][1][2]
    assert untraced == traced
    assert len(untraced) == len(wl.jobs_for(workload, 3, "tiny"))


def test_trace_layer_is_idle_unless_tracing(results):
    for workload in wl.WORKLOADS:
        layer = results[workload][1][1]["metrics"]
        values = [m["value"] for name, m in layer.items() if name.startswith("trace.")]
        if workload == "php-proof":
            assert all(v > 0 for v in values)
        else:
            assert not any(values)


def test_random_search_reaches_reduce_db(results):
    assert results["random-search"][1][1]["metrics"]["solver.reduce_db_calls"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench(tmp_path, "--workload", "php-ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def pb():
    previous = signal.getsignal(signal.SIGALRM)
    yield run.Pb()
    signal.signal(signal.SIGALRM, previous)


def test_a_job_that_raises_is_failed_not_unknown(pb):
    job = wl.Job(wl.php(3, 2), "no-such-strategy", 10)
    r = run.run_guarded(pb, job, run.Watchdog(time.monotonic() + 60))
    assert r.error is not None and r.error.startswith("ValueError")
    assert r.status != "UNKNOWN" and not r.solved


def test_a_job_past_the_wall_limit_is_failed(pb):
    # Seconds of search for this strategy; the watchdog stops it early.
    job = wl.Job(wl.php(8, 7), "weaken-ineffective-reason", wl.GENEROUS_BUDGET)
    started = time.monotonic()
    r = run.run_guarded(pb, job, run.Watchdog(started + 0.3))
    assert time.monotonic() - started < 5
    assert r.error is not None and r.error.startswith("WallLimit") and not r.solved
    late = run.run_guarded(pb, job, run.Watchdog(started))
    assert late.error.startswith("not started") and not late.solved


def test_unsat_contradicted_by_a_verified_model_is_failed():
    inst = wl.balanced_random(10, 5, 1, "t")
    runs = [run.JobRun(wl.Job(inst, s, 10), status) for s, status in (("gen-res", "SAT"), ("rs-both", "UNSAT"))]
    run.cross_check(runs)
    assert runs[0].error is None
    assert runs[1].error is not None


def test_models_are_checked_against_the_written_rows():
    inst = wl.php(2, 1)  # x1 >= 1, x2 >= 1, -x1 - x2 >= -1
    assert not wl.model_satisfies(inst, {1: True, 2: True})
    assert not wl.model_satisfies(inst, {1: True, 2: False})
    free = wl.balanced_random(8, 1, 2, "t")
    assert any(
        wl.model_satisfies(free, {v: bool(bits >> (v - 1) & 1) for v in range(1, 9)})
        for bits in range(256)
    )
