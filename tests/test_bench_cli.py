"""Benchmark-matrix and command-line tests."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pbsolve.bench import CSV_HEADER, run_matrix, write_cactus_csv, write_csv
from pbsolve.cli import RANDOM_TAG, _build_parser
from pbsolve.generators import balanced_instance, php_instance
from pbsolve.opb import parse_opb, write_opb
from pbsolve.solver import SolverConfig
from helpers import random_instance


def write_instance(path: Path, instance) -> Path:
    with open(path, "w", encoding="ascii") as f:
        write_opb(instance, f)
    return path


@pytest.fixture
def bench_dir(tmp_path):
    d = tmp_path / "instances"
    d.mkdir()
    write_instance(d / "php-2-1.opb", php_instance(2, 1))
    write_instance(d / "php-3-2.opb", php_instance(3, 2))
    write_instance(d / "rand-a.opb", random_instance(6, 8, 5, 1))
    return d


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pbsolve", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=300,
    )


def write_huge_coefficient_instance(path: Path) -> Path:
    """An UNSAT instance whose coefficients have 5,000 decimal digits."""
    n = "9" * 5000
    path.write_text(f"+{n} x1 +{n} x2 >= {n} ;\n-{n} x1 >= 0 ;\n-{n} x2 >= 0 ;\n")
    return path


class TestBenchMatrix:
    def test_row_cardinality_and_header(self, bench_dir, tmp_path):
        records = run_matrix(sorted(bench_dir.glob("*.opb"))[:2], ["gen-res", "rs-both"], 60)
        assert len(records) == 4
        buf = io.StringIO()
        write_csv(records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_csv_header_text_is_pinned(self):
        assert CSV_HEADER == (
            "instance,strategy,status,seconds,conflicts,decisions,propagations,"
            "learned,max_coeff_bits,fallbacks"
        )

    @pytest.mark.parametrize(
        "strategies, timeout, message",
        [
            (["nope"], 10, "unknown strategy 'nope'"),
            (["gen-res"], -1, "time budget must be >= 0"),
            # Its runs would share one trace path and count each instance twice as solved.
            (["rs-both", "gen-res", "rs-both"], 30, "^strategy rs-both is given more than once$"),
        ],
        ids=["unknown-strategy", "negative-timeout", "repeated-strategy"],
    )
    def test_bad_settings_raise_before_any_run(self, tmp_path, strategies, timeout, message):
        # The path does not exist: a worker that ran would yield a crashed row.
        traces = tmp_path / "traces"
        with pytest.raises(ValueError, match=message):
            run_matrix([tmp_path / "absent.opb"], strategies, timeout, trace_dir=traces)
        assert not traces.exists()

    @pytest.mark.parametrize(
        "names",
        [["a/php.opb", "b/php.opb"], ["a/php.opb", "a/php.opb"]],
        ids=["two-directories", "same-path"],
    )
    def test_repeated_instance_stem_raises_before_any_run(self, tmp_path, names):
        # Both runs would write php.rs-both.trace, and the cactus CSV would count two solved under one name.
        for name, (pigeons, holes) in zip(names, [(4, 3), (5, 3)]):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            write_instance(tmp_path / name, php_instance(pigeons, holes))
        traces = tmp_path / "traces"
        with pytest.raises(ValueError, match="^instance stem php is given more than once$"):
            run_matrix([tmp_path / name for name in names], ["rs-both"], 30, trace_dir=traces)
        assert not traces.exists()

    def test_trace_dir_is_created_after_the_settings_check(self, bench_dir, tmp_path):
        path = sorted(bench_dir.glob("*.opb"))[0]
        traces = tmp_path / "new" / "traces"
        with pytest.raises(ValueError):
            run_matrix([path], ["gen-res"], -1, trace_dir=traces)
        assert not (tmp_path / "new").exists()
        (record,) = run_matrix([path], ["gen-res"], 60, trace_dir=traces)
        assert record.error is None
        assert (traces / f"{path.stem}.gen-res.trace").exists()

    def test_a_trace_that_cannot_be_written_keeps_the_answer(self, tmp_path):
        path = write_instance(tmp_path / "php-4-3.opb", php_instance(4, 3))
        traces = tmp_path / "traces"
        blocked = traces / "php-4-3.rs-both.trace"
        blocked.mkdir(parents=True)
        untraced = run_matrix([path], ["rs-both"], 60)
        failed, written = run_matrix([path], ["rs-both", "gen-res"], 60, trace_dir=traces)
        assert failed.status == "UNSAT"
        assert failed.row()[4:] == untraced[0].row()[4:]
        assert (failed.error, failed.trace_error) == (None, f"cannot write {blocked}: Is a directory")
        assert (written.status, written.error, written.trace_error) == ("UNSAT", None, None)
        assert (traces / "php-4-3.gen-res.trace").is_file()

    def test_cactus_counts_are_nondecreasing(self, bench_dir):
        records = run_matrix(sorted(bench_dir.glob("*.opb")), ["gen-res", "partial-rs-both"], 60)
        buf = io.StringIO()
        write_cactus_csv(records, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        by_strategy: dict[str, list[int]] = {}
        for row in rows:
            by_strategy.setdefault(row["strategy"], []).append(int(row["solved"]))
        assert by_strategy
        for counts in by_strategy.values():
            assert counts == sorted(counts)
            assert counts[0] == 1

    def test_unreadable_file_becomes_unknown_row(self, tmp_path):
        bad = tmp_path / "broken.opb"
        bad.write_text("+1 x1 >= oops\n")
        records = run_matrix([bad], ["gen-res"], 10)
        assert records[0].status == "UNKNOWN"
        assert records[0].error.startswith("OpbSyntaxError: ")

    def test_worker_reads_coefficients_beyond_the_int_text_limit(self, tmp_path):
        path = write_huge_coefficient_instance(tmp_path / "huge.opb")
        (record,) = run_matrix([path], ["gen-res"], 60)
        assert (record.status, record.error) == ("UNSAT", None)

    def test_parallel_jobs_match_serial(self, bench_dir, tmp_path):
        paths = sorted(bench_dir.glob("*.opb"))
        serial = run_matrix(paths, ["rs-both"], 60, jobs=1)
        parallel = run_matrix(paths, ["rs-both"], 60, jobs=2)
        strip = lambda rs: [(r.instance, r.strategy, r.status, r.stats.conflicts) for r in rs]
        assert strip(serial) == strip(parallel)

    @pytest.mark.parametrize("timeout", [float("inf"), 1e7], ids=["inf", "1e7"])
    def test_timeout_beyond_the_longest_wait(self, bench_dir, timeout):
        # ``wait`` raises OverflowError on infinity or on more than 2**31 ms.
        records = run_matrix(sorted(bench_dir.glob("php-*.opb")), ["gen-res"], timeout)
        assert [(r.instance, r.status, r.error) for r in records] == [
            ("php-2-1.opb", "UNSAT", None),
            ("php-3-2.opb", "UNSAT", None),
        ]

    def test_worker_outlasting_several_waits(self, bench_dir, monkeypatch):
        import time as time_mod

        import pbsolve.bench as bench_mod

        solve_one = bench_mod.run_one

        def slow(*task):
            time_mod.sleep(0.5)
            return solve_one(*task)

        # Workers are forked, so they inherit the patched function.
        monkeypatch.setattr(bench_mod, "run_one", slow)
        monkeypatch.setattr(bench_mod, "MAX_WAIT_SECONDS", 0.05)
        (record,) = bench_mod.run_matrix([bench_dir / "php-2-1.opb"], ["gen-res"], float("inf"))
        assert (record.status, record.error) == ("UNSAT", None)

    def test_watchdog_kills_stuck_worker(self, bench_dir, monkeypatch):
        import time as time_mod

        import pbsolve.bench as bench_mod

        def stuck(path, strategy, timeout, trace_path=None):
            time_mod.sleep(3600)

        # Workers are forked, so they inherit the patched function.
        monkeypatch.setattr(bench_mod, "run_one", stuck)
        monkeypatch.setattr(bench_mod, "GRACE_SECONDS", 0.2)
        paths = sorted(bench_dir.glob("*.opb"))[:1]
        records = bench_mod.run_matrix(paths, ["gen-res"], timeout=0.1, jobs=2)
        assert len(records) == 1
        assert records[0].status == "UNKNOWN"
        assert records[0].error.startswith("killed after ")

    def test_crashed_worker_becomes_unknown_row(self, bench_dir, monkeypatch):
        import os

        import pbsolve.bench as bench_mod

        def crash(path, strategy, timeout, trace_path=None):
            os._exit(3)

        # Workers are forked, so they inherit the patched function.
        monkeypatch.setattr(bench_mod, "run_one", crash)
        paths = sorted(bench_dir.glob("*.opb"))[:1]
        (record,) = bench_mod.run_matrix(paths, ["gen-res"], timeout=60)
        assert (record.status, record.error) == ("UNKNOWN", "worker exited with code 3")


class TestCli:
    def test_solve_unsat_exit_code_and_output(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        proc = run_cli("solve", path, "--strategy", "rs-both")
        assert proc.returncode == 20
        assert "s UNSATISFIABLE" in proc.stdout

    def test_solve_sat_prints_values(self, tmp_path):
        path = tmp_path / "one.opb"
        path.write_text("+1 x1 >= 1 ;\n")
        proc = run_cli("solve", path)
        assert proc.returncode == 10
        assert "s SATISFIABLE" in proc.stdout
        assert "\nv x1" in proc.stdout

    @pytest.mark.parametrize(
        "content, values",
        [
            ("+1 x1 >= 0 ;\n", "v -x1"),
            ("* #variable= 1 #constraint= 2\n+1 x1 >= 1 ;\n+1 x2 +1 x3 >= 0 ;\n", "v x1 -x2 -x3"),
        ],
    )
    def test_solve_prints_every_variable_of_the_file(self, tmp_path, content, values):
        # x1 in the first file and x2, x3 in the second occur only in rows
        # that normalization drops as tautologies.
        path = tmp_path / "dropped.opb"
        path.write_text(content)
        proc = run_cli("solve", path)
        assert proc.returncode == 10
        assert proc.stdout.splitlines()[-1] == values

    def test_malformed_file_positioned_diagnostic(self, tmp_path):
        path = tmp_path / "bad.opb"
        path.write_text("+1 x1 x2 >= 1 ;\n")
        proc = run_cli("solve", path)
        assert proc.returncode == 1
        assert "line 1" in proc.stderr

    def test_verify_names_the_instance_in_a_syntax_error(self, tmp_path):
        # verify reports a malformed instance row as solve does: one error
        # line that names the file before the position.
        path = tmp_path / "bad.opb"
        path.write_text("+1 x1 >= 1 ;\n+1 x1 +1 >= 1 ;\n")
        trace = tmp_path / "bad.trace"
        trace.write_text("i 2\nf 1\n")
        expected = f"error: {path}: line 2, column 10: expected a variable token after coefficient, got '>='\n"
        for command in (("solve", path), ("verify", path, trace)):
            proc = run_cli(*command)
            assert proc.returncode == 1
            assert proc.stderr == expected

    @pytest.mark.parametrize(
        "content, extra",
        [
            (b"+1 x1 >= 1 ;\n", ["--timeout", "-1"]),
            (b"+1 x1 >= 1 ;\n", ["--timeout", "nan"]),
            (b"* caf\xc3\xa9\n+1 x1 >= 1 ;\n", []),
            (b"+1 x1 >= 1 ;\n", ["--strategy", "bogus"]),
        ],
        ids=["negative-timeout", "nan-timeout", "non-ascii-comment", "unknown-strategy"],
    )
    def test_solve_bad_input_is_one_error_line(self, tmp_path, content, extra):
        path = tmp_path / "in.opb"
        path.write_bytes(content)
        proc = run_cli("solve", path, *extra)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_missing_file(self, tmp_path):
        proc = run_cli("solve", tmp_path / "absent.opb")
        assert proc.returncode == 1

    def test_usage_error(self):
        proc = run_cli("solve")
        assert proc.returncode == 1

    def test_seed_flag_is_rejected(self, bench_dir, tmp_path):
        proc = run_cli("solve", bench_dir / "php-3-2.opb", "--seed", "1")
        assert proc.returncode == 1
        assert "--seed" in proc.stderr
        proc = run_cli("bench", bench_dir, "--seed", "1", "--out", tmp_path / "x.csv")
        assert proc.returncode == 1
        assert "--seed" in proc.stderr

    def test_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, pbsolve; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_generate_php_counts(self, tmp_path):
        out = tmp_path / "php.opb"
        proc = run_cli("generate", "php", "--pigeons", "3", "--holes", "2", "--out", out)
        assert proc.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header == "* #variable= 6 #constraint= 5"

    def test_generate_random_reproducible(self, tmp_path):
        a, b = tmp_path / "a.opb", tmp_path / "b.opb"
        for out in (a, b):
            proc = run_cli(
                "generate", "random", "--vars", "6", "--constraints", "9",
                "--seed", "5", "--out", out,
            )
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_random_is_the_balanced_family(self, tmp_path):
        # The file parses back to exactly the package's draw under the
        # command's fixed tag.
        out = tmp_path / "r.opb"
        proc = run_cli("generate", "random", "--vars", "10", "--constraints", "40", "--seed", "6", "--out", out)
        assert proc.returncode == 0
        expected = balanced_instance(10, 40, 6, RANDOM_TAG)
        assert proc.stdout == f"c wrote {expected.name} (seed 6): 40 constraints over 10 variables\n"
        assert parse_opb(out.read_text()).constraints == expected.constraints

    def test_generate_random_names_its_seed(self, tmp_path):
        # The instance name leaves the seed out, so the line adds it: two
        # seeds at one size print two different lines.
        lines = []
        for seed in (6, 15):
            proc = run_cli("generate", "random", "--vars", "10", "--constraints", "40",
                           "--seed", str(seed), "--out", tmp_path / f"r{seed}.opb")
            assert proc.returncode == 0
            lines.append(proc.stdout)
        expected = "c wrote rand-cli-10-40 (seed {}): 40 constraints over 10 variables\n"
        assert lines == [expected.format(6), expected.format(15)]

    def test_generate_random_has_no_max_weight(self, tmp_path):
        # The balanced family draws weights in 1..10; the option is gone.
        out = tmp_path / "r.opb"
        proc = run_cli("generate", "random", "--vars", "8", "--constraints", "12",
                       "--max-weight", "7", "--out", out)
        assert proc.returncode == 1
        assert not out.exists()

    def test_generate_rejects_bad_parameters(self, tmp_path):
        proc = run_cli("generate", "php", "--pigeons", "0", "--holes", "2",
                       "--out", tmp_path / "x.opb")
        assert proc.returncode == 1
        # A row samples six distinct variables, so five are too few.
        out = tmp_path / "r.opb"
        proc = run_cli("generate", "random", "--vars", "5", "--constraints", "4", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr == "error: nvars must be >= 6 (a row samples six variables), got 5\n"
        assert not out.exists()

    def test_emit_trace_then_verify(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        trace = tmp_path / "php.trace"
        proc = run_cli("solve", path, "--strategy", "gen-res", "--emit-trace", trace)
        assert proc.returncode == 20
        assert trace.exists()
        check = run_cli("verify", path, trace)
        assert check.returncode == 0
        assert "trace OK" in check.stdout

    def test_unsatisfiable_row_trace_verifies(self, tmp_path):
        path = tmp_path / "false.opb"
        path.write_text("+1 x1 >= 2 ;\n+1 x2 +1 x3 >= 1 ;\n")
        trace = tmp_path / "false.trace"
        proc = run_cli("solve", path, "--emit-trace", trace)
        assert proc.returncode == 20, proc.stderr
        assert trace.read_text().splitlines()[-1] == "f 1"
        check = run_cli("verify", path, trace)
        assert check.returncode == 0, check.stderr
        assert "trace OK" in check.stdout

    def test_solve_strategy_default_is_the_solver_default(self):
        args = _build_parser().parse_args(["solve", "in.opb"])
        assert args.strategy == SolverConfig().strategy

    def test_verify_accepts_an_ignored_objective(self, tmp_path):
        path = tmp_path / "objective.opb"
        path.write_text("min: +1 x1 +1 x2 ;\n+1 x1 >= 1 ;\n+1 x2 >= 1 ;\n-1 x1 -1 x2 >= -1 ;\n")
        trace = tmp_path / "objective.trace"
        proc = run_cli("solve", path, "--ignore-objective", "--emit-trace", trace)
        assert proc.returncode == 20, proc.stderr
        check = run_cli("verify", path, trace)
        assert check.returncode == 0, check.stderr
        assert "warning: objective on line 1 ignored (decision mode)" in check.stderr
        assert "trace OK" in check.stdout

    def test_verify_rejects_truncated_step(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        trace = tmp_path / "php.trace"
        assert run_cli("solve", path, "--strategy", "gen-res", "--emit-trace", trace).returncode == 20
        lines = trace.read_text().splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith("s "))
        head, _, ctext = lines[index].partition(" : ")
        lines[index] = head.rsplit(" ", 1)[0] + " : " + ctext
        trace.write_text("\n".join(lines) + "\n")
        check = run_cli("verify", path, trace)
        assert check.returncode == 1
        assert f"error: trace line {index + 1}: " in check.stderr
        assert "Traceback" not in check.stderr

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file or directory"),
            (b"* caf\xc3\xa9\n", "'ascii' codec can't decode"),
            (b"", "input count mismatch: trace has 0, instance has"),
            (b"* a note\nf 1\n", "input count mismatch: trace has 0, instance has"),
        ],
        ids=["missing", "non-ascii", "empty", "note-and-final"],
    )
    def test_verify_reports_an_unreadable_trace(self, tmp_path, content, message):
        path = write_instance(tmp_path / "php.opb", php_instance(2, 1))
        trace = tmp_path / "php.trace"
        if content is not None:
            trace.write_bytes(content)
        check = run_cli("verify", path, trace)
        assert check.returncode == 1
        assert check.stderr.startswith("error: ") and message in check.stderr
        assert len(check.stderr.splitlines()) == 1
        assert "Traceback" not in check.stderr

    def test_coefficients_beyond_the_int_text_limit(self, tmp_path):
        path = write_huge_coefficient_instance(tmp_path / "huge.opb")
        trace = tmp_path / "huge.trace"
        proc = run_cli("solve", path, "--emit-trace", trace)
        assert proc.returncode == 20, proc.stderr
        check = run_cli("verify", path, trace)
        assert check.returncode == 0, check.stderr

    def test_bench_reports_crashed_runs(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "broken.opb").write_text("+1 x1 >= oops\n")
        write_instance(d / "php-2-1.opb", php_instance(2, 1))
        proc = run_cli("bench", d, "--strategies", "gen-res", "--timeout", "10",
                       "--out", tmp_path / "rows.csv")
        assert proc.returncode == 0
        assert "broken.opb gen-res: OpbSyntaxError: " in proc.stderr
        assert "c 2 runs, 1 solved, 1 crashed;" in proc.stdout

    def test_bench_counts_a_trace_it_could_not_write_apart(self, tmp_path):
        # Both runs solve; one trace path is a directory.  The row is not a
        # crash, and the missing trace fails the command as it fails
        # `solve --emit-trace`.
        d = tmp_path / "instances"
        d.mkdir()
        write_instance(d / "php-4-3.opb", php_instance(4, 3))
        blocked = tmp_path / "T" / "php-4-3.rs-both.trace"
        blocked.mkdir(parents=True)
        out = tmp_path / "rows.csv"
        proc = run_cli("bench", d, "--strategies", "rs-both,gen-res", "--trace-dir", tmp_path / "T", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr == f"error: php-4-3.opb rs-both: cannot write {blocked}: Is a directory\n"
        assert "c 2 runs, 2 solved, 0 crashed, 1 trace not written;" in proc.stdout
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [(row["strategy"], row["status"]) for row in rows] == [("rs-both", "UNSAT"), ("gen-res", "UNSAT")]
        assert (tmp_path / "T" / "php-4-3.gen-res.trace").is_file()

    def test_bench_with_an_infinite_timeout(self, bench_dir, tmp_path):
        out = tmp_path / "rows.csv"
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--timeout", "inf", "--out", out)
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert [row["instance"] for row in rows] == ["php-2-1.opb", "php-3-2.opb", "rand-a.opb"]
        assert [row["status"] for row in rows[:2]] == ["UNSAT", "UNSAT"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--timeout", "-1"], "time budget must be >= 0"),
            (["--strategies", "gen-res,nope"], "unknown strategy 'nope'"),
            (["--strategies", "rs-both,gen-res,rs-both", "--jobs", "2"], "strategy rs-both is given more than once"),
        ],
        ids=["negative-timeout", "unknown-strategy", "repeated-strategy"],
    )
    def test_bench_rejects_bad_settings(self, bench_dir, tmp_path, extra, message):
        proc = run_cli("bench", bench_dir, *extra, "--trace-dir", tmp_path / "traces", "--out", tmp_path / "rows.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        # No row, cactus or trace file, nor the trace directory, is written.
        assert list(tmp_path.iterdir()) == [bench_dir]

    def test_bench_rejects_zero_jobs(self, bench_dir, tmp_path):
        # run_matrix makes the one check, and the CLI prints its message.
        out = tmp_path / "rows.csv"
        proc = run_cli("bench", bench_dir, "--jobs", "0", "--out", out)
        assert proc.returncode == 1
        assert proc.stderr == "error: jobs must be >= 1, got 0\n"
        assert not out.exists() and not out.with_suffix(".cactus.csv").exists()

    def test_bench_csv_schema_and_determinism(self, bench_dir, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            proc = run_cli(
                "bench", bench_dir, "--strategies", "gen-res,rs-both",
                "--timeout", "60", "--jobs", "1", "--out", out,
            )
            assert proc.returncode == 0
            outs.append(out)
        first, second = (o.read_text().splitlines() for o in outs)
        assert first[0] == CSV_HEADER
        strip_seconds = lambda lines: [
            ",".join(v for i, v in enumerate(row.split(",")) if i != 3) for row in lines
        ]
        assert strip_seconds(first) == strip_seconds(second)
        assert (tmp_path / "one.cactus.csv").exists()

    def test_bench_trace_dir_that_is_a_file(self, bench_dir, tmp_path):
        traces = tmp_path / "traces"
        traces.write_text("")
        proc = run_cli("bench", bench_dir, "--trace-dir", traces, "--out", tmp_path / "rows.csv")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


def assert_one_error_line(proc, path, problem=None):
    assert proc.returncode == 1
    problem = problem or f"no directory {path.parent}"
    assert proc.stderr == f"error: cannot write {path}: {problem}\n"
    assert proc.stdout == ""


class TestBadOutputPath:
    """An output path in a missing directory, naming a directory, or naming
    an input or an earlier output, is one error line, before any work
    starts; a device may take every output."""

    def test_generate(self, tmp_path):
        out = tmp_path / "absent" / "php.opb"
        proc = run_cli("generate", "php", "--pigeons", "3", "--holes", "2", "--out", out)
        assert_one_error_line(proc, out)

    def test_solve_emit_trace(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        trace = tmp_path / "absent" / "php.trace"
        proc = run_cli("solve", path, "--emit-trace", trace)
        assert_one_error_line(proc, trace)

    def test_solve_emit_trace_into_a_directory(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        proc = run_cli("solve", path, "--emit-trace", tmp_path)
        assert_one_error_line(proc, tmp_path, "it is a directory")

    def test_solve_emit_trace_onto_its_input(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        text = path.read_text()
        proc = run_cli("solve", path, "--emit-trace", path)
        assert_one_error_line(proc, path, "it is also an input")
        assert path.read_text() == text

    @pytest.mark.skipif(not hasattr(os, "link"), reason="needs hard links")
    def test_solve_emit_trace_onto_a_hard_link_to_its_input(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        link = tmp_path / "hl.opb"
        os.link(path, link)
        text = path.read_text()
        proc = run_cli("solve", path, "--emit-trace", link)
        assert_one_error_line(proc, link, "it is also an input")
        assert path.read_text() == text

    @pytest.mark.skipif(not hasattr(os, "link"), reason="needs hard links")
    def test_bench_cactus_onto_a_hard_link_to_its_rows(self, bench_dir, tmp_path):
        rows, cactus = tmp_path / "rows.csv", tmp_path / "cactus.csv"
        rows.write_text("kept\n")
        os.link(rows, cactus)
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--out", rows, "--cactus", cactus)
        assert_one_error_line(proc, cactus, "it is also an earlier output")
        assert rows.read_text() == "kept\n"

    def test_bench_cactus_onto_its_rows(self, bench_dir, tmp_path):
        rows = tmp_path / "rows.csv"
        traces = tmp_path / "traces"
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--trace-dir", traces,
                       "--out", rows, "--cactus", rows)
        assert_one_error_line(proc, rows, "it is also an earlier output")
        assert not rows.exists() and not traces.exists()

    @pytest.mark.skipif(not Path(os.devnull).exists(), reason=f"needs {os.devnull}")
    def test_bench_both_outputs_onto_a_device(self, bench_dir):
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--out", os.devnull, "--cactus", os.devnull)
        assert proc.returncode == 0, proc.stderr

    def test_bench_rows_onto_an_input(self, bench_dir, tmp_path):
        instance = bench_dir / "php-2-1.opb"
        text = instance.read_text()
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--out", instance)
        assert_one_error_line(proc, instance, "it is also an input")
        assert instance.read_text() == text

    @pytest.mark.parametrize("which", ["out", "cactus"])
    def test_bench(self, bench_dir, tmp_path, which):
        paths = {"out": tmp_path / "rows.csv", "cactus": tmp_path / "rows.cactus.csv"}
        paths[which] = tmp_path / "absent" / f"{which}.csv"
        traces = tmp_path / "traces"
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--trace-dir", traces,
                       "--out", paths["out"], "--cactus", paths["cactus"])
        assert_one_error_line(proc, paths[which])
        # No worker ran: each would have written a trace there.
        assert not traces.exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full, which fails every write")
class TestFailedWrite:
    """A write that fails after the output was opened is one error line and
    exit 1, not a traceback."""

    FULL = Path("/dev/full")

    def assert_write_failed(self, proc):
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: cannot write {self.FULL}: No space left on device"]
        assert "Traceback" not in proc.stderr

    def test_solve_emit_trace_prints_the_answer_first(self, tmp_path):
        path = write_instance(tmp_path / "php.opb", php_instance(3, 2))
        proc = run_cli("solve", path, "--emit-trace", self.FULL)
        self.assert_write_failed(proc)
        assert "s UNSATISFIABLE" in proc.stdout.splitlines()

    def test_generate(self):
        self.assert_write_failed(run_cli("generate", "php", "--pigeons", "3", "--holes", "2", "--out", self.FULL))

    @pytest.mark.parametrize("which", ["out", "cactus"])
    def test_bench(self, bench_dir, tmp_path, which):
        paths = {"out": tmp_path / "rows.csv", "cactus": tmp_path / "rows.cactus.csv", which: self.FULL}
        proc = run_cli("bench", bench_dir, "--strategies", "gen-res", "--out", paths["out"], "--cactus", paths["cactus"])
        self.assert_write_failed(proc)
