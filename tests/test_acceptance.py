"""The acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavyweight strategy-matrix run is shared between criteria 3, 4
and 7 through a session fixture, so the suite executes it once.
"""

import random
import subprocess
import sys
import time

import pytest

from pbsolve.analysis import (
    STRATEGY_IDS,
    Accumulator,
    reduce_multiply_weaken,
    reduce_rs,
    weaken_ineffective,
)
from pbsolve.bench import CSV_HEADER
from pbsolve.core import Constraint, slack
from pbsolve.generators import php_instance
from pbsolve.opb import UNKNOWN, UNSAT, write_opb
from pbsolve.solver import SolverConfig, solve
from pbsolve.trace import verify_trace
from helpers import (
    asg,
    brute_force_status,
    cancel,
    con,
    divide,
    implies_semantically,
    lit,
    literals,
    observe_resolve_steps,
    on_accumulator,
    partial_weaken,
    propagation_candidates,
    random_instance,
    resolved,
    saturate,
    weaken,
    weight,
)


def report(number: int, name: str, detail: str) -> None:
    print(f"\n[acceptance] criterion {number} ({name}): PASS — {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: the worked derivations reproduce bit-exactly.
# ---------------------------------------------------------------------------


def test_criterion_1_worked_derivations():
    started = time.monotonic()

    # Slack and propagation in the running scenario.
    rho = asg(a=1, c=0, d=0, e=0)
    reason = con("6~b 6c 4e f g h >= 7")
    conflict = con("5a 4b c d >= 6")
    assert slack(reason, rho) == 2
    assert propagation_candidates(reason, rho) == (lit("~b"),)
    rho_b = rho | {lit("~b")}
    assert slack(conflict, rho_b) == -1

    # Plain cancellation with reason weakening: one step, slack -1.
    genres = resolved(conflict, reason, lit("~b"), rho_b, "gen-res")
    assert genres.constraint == con("25a 25c 16e 5d 4f >= 30")
    assert slack(genres.constraint, rho_b) == -1

    # Rounding on both sides ends in the clause.
    rs = resolved(conflict, reason, lit("~b"), rho_b, "rs-both")
    assert rs.constraint == con("c d e >= 1")

    # Ineffective-literal weakening, both sides and conflict-only.
    rho4 = asg(a=0, c=0, f=0)
    reason4 = con("3~a 3~b c d e >= 6")
    reduced4 = on_accumulator(weaken_ineffective, reason4, lit("~b"), rho4)
    assert reduced4 == con("~b c >= 1")
    rho4b = rho4 | {lit("~b")}
    conflict4 = con("2a b c f >= 2")
    reduced4 = on_accumulator(weaken_ineffective, conflict4, lit("b"), rho4b)
    assert reduced4 == con("a b f >= 1")
    both = resolved(conflict4, reason4, lit("~b"), rho4b, "weaken-ineffective-both")
    assert both.constraint == con("a c f >= 1")
    one_side = resolved(conflict4, reason4, lit("~b"), rho4b, "weaken-ineffective-conflict")
    assert one_side.constraint == con("3f c d e >= 3")
    follow_up = on_accumulator(weaken_ineffective, one_side.constraint, None, rho4b)
    assert follow_up == con("c f >= 1")

    # Partial rounding keeps the non-divisible remainders.
    rho6 = asg(a=1, b=0, c=0, d=0, e=0)
    partial = on_accumulator(reduce_rs, con("8a 7b 7c 2d 2e f >= 11"), lit("b"), rho6, partial=True)
    assert partial == con("a b c d e >= 2")

    # Multiply-and-weaken avoids the LCM blowup.
    rho7 = asg(a=0, d=0, e=1, b=1)
    reduced = Accumulator(con("5a 5b 3c 2d e >= 6"))
    assert reduce_multiply_weaken(reduced, lit("b"), rho7, 3)
    assert reduced.constraint() == con("3a 3b c 2d >= 3")
    mw = resolved(
        con("3~b 2a 2d ~e >= 5"), con("5a 5b 3c 2d e >= 6"), lit("b"), rho7,
        "multiply-weaken",
    )
    assert mw.constraint == con("5a 4d c ~e >= 5")

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "worked derivations", f"14 exact values in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: 10,000 random rule applications are semantically sound.
# ---------------------------------------------------------------------------


def _random_constraint(rng, nvars=12, max_weight=9):
    width = rng.randint(1, min(6, nvars))
    variables = rng.sample(range(1, nvars + 1), width)
    terms = []
    total = 0
    for v in variables:
        w = rng.randint(1, max_weight)
        total += w
        terms.append((v if rng.random() < 0.5 else -v, w))
    return saturate(Constraint(terms, rng.randint(1, total)))


def test_criterion_2_rule_soundness():
    rng = random.Random(20240)
    started = time.monotonic()
    applications = 0
    while applications < 10_000:
        c = _random_constraint(rng)
        kind = rng.randrange(5)
        if kind == 0:
            other = _random_constraint(rng)
            pivots = [abs(l) for l in literals(c) if -l in literals(other)]
            if not pivots:
                continue
            try:
                out = cancel(c, other, rng.choice(pivots))
            except ValueError as exc:
                assert "degree must be >= 1" in str(exc)  # a tautology
            else:
                assert implies_semantically([c, other], out)
            applications += 1
            continue
        try:
            if kind == 1:
                target = rng.choice(literals(c))
                out = weaken(c, target)
            elif kind == 2:
                target = rng.choice(literals(c))
                out = partial_weaken(c, target, rng.randint(1, weight(c, target)))
            elif kind == 3:
                out = saturate(c)
            else:
                out = divide(c, rng.randint(1, 6))
        except ValueError as exc:
            assert "degree must be >= 1" in str(exc)  # a tautology
        else:
            assert implies_semantically([c], out)
        applications += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(2, "rule soundness", f"{applications} applications in {elapsed:.1f}s, 0 failures")


# ---------------------------------------------------------------------------
# Criteria 3, 4, 7 share one strategy-matrix run.
# ---------------------------------------------------------------------------


class MatrixOutcome:
    def __init__(self):
        self.disagreements = []
        self.resolve_steps = 0
        self.conflict_violations = 0
        self.traced_runs = []  # (instance, trace)
        self.runs = 0
        self.seconds = 0.0


@pytest.fixture(scope="session")
def strategy_matrix() -> MatrixOutcome:
    outcome = MatrixOutcome()
    started = time.monotonic()

    def observer(conflict, reason, pivot, rho, step):
        outcome.resolve_steps += 1
        if slack(step.constraint, rho) >= 0:
            outcome.conflict_violations += 1

    sizes = [(6, 10, 8), (7, 12, 10), (8, 12, 10)]
    with pytest.MonkeyPatch.context() as monkeypatch:
        observe_resolve_steps(monkeypatch, observer)
        for index in range(500):
            nvars, ncons, maxw = sizes[index % len(sizes)]
            instance = random_instance(nvars, ncons, maxw, 71_000 + index)
            expected = brute_force_status(instance)
            for strategy in STRATEGY_IDS:
                config = SolverConfig(strategy=strategy, emit_trace=True)
                result = solve(instance, config)
                outcome.runs += 1
                if result.status != expected:
                    outcome.disagreements.append((instance.name, strategy, result.status, expected))
                outcome.traced_runs.append((instance, result.trace))
    outcome.seconds = time.monotonic() - started
    return outcome


def test_criterion_3_oracle_equivalence(strategy_matrix):
    assert strategy_matrix.runs == 500 * 11
    assert strategy_matrix.disagreements == []
    assert strategy_matrix.seconds < 300.0
    report(
        3,
        "oracle equivalence",
        f"{strategy_matrix.runs} runs agree with enumeration in {strategy_matrix.seconds:.0f}s",
    )


def test_criterion_4_conflictuality_invariant(strategy_matrix):
    assert strategy_matrix.resolve_steps > 0
    assert strategy_matrix.conflict_violations == 0
    report(
        4,
        "conflictuality invariant",
        f"{strategy_matrix.resolve_steps} resolve steps, 0 non-conflicting outputs",
    )


# ---------------------------------------------------------------------------
# Criterion 5: pigeonhole strength separation.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def pigeonhole_runs():
    runs = {}
    big = php_instance(11, 10)
    for strategy in ("gen-res", "rs-both", "partial-rs-both"):
        started = time.monotonic()
        result = solve(big, SolverConfig(strategy=strategy, emit_trace=True, time_budget=30))
        runs[strategy] = (result, time.monotonic() - started, big)
    small = php_instance(8, 7)
    baseline = solve(small, SolverConfig(strategy="gen-res", emit_trace=True))
    runs["gen-res-php8"] = (baseline, baseline.stats.seconds, small)
    budget = 10 * max(baseline.stats.conflicts, 1)
    degenerate = solve(
        small,
        SolverConfig(strategy="weaken-ineffective-both", conflict_budget=budget, time_budget=120),
    )
    runs["weaken-ineffective-php8"] = (degenerate, degenerate.stats.seconds, small)
    return runs


def test_criterion_5_pigeonhole_strength(pigeonhole_runs):
    details = []
    for strategy in ("gen-res", "rs-both", "partial-rs-both"):
        result, elapsed, _ = pigeonhole_runs[strategy]
        assert result.status == UNSAT, strategy
        assert elapsed < 30.0, strategy
        details.append(f"{strategy} {elapsed:.2f}s/{result.stats.conflicts}c")
    baseline, _, _ = pigeonhole_runs["gen-res-php8"]
    degenerate, _, _ = pigeonhole_runs["weaken-ineffective-php8"]
    assert baseline.status == UNSAT
    gap_ok = (
        degenerate.status == UNKNOWN
        or degenerate.stats.conflicts >= 10 * baseline.stats.conflicts
    )
    assert gap_ok
    report(
        5,
        "pigeonhole strength",
        "; ".join(details)
        + f"; degenerate {degenerate.status} at {degenerate.stats.conflicts} conflicts"
        f" vs {baseline.stats.conflicts}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: partial rounding dominates full rounding pointwise.
# ---------------------------------------------------------------------------


def test_criterion_6_strength_dominance():
    rng = random.Random(60_601)
    started = time.monotonic()
    checked = 0
    while checked < 1_000:
        c = _random_constraint(rng, nvars=10, max_weight=9)
        pivot = rng.choice(literals(c))
        rho = set()
        for v in range(1, 11):
            if v != abs(pivot) and rng.random() < 0.5:
                rho.add(v if rng.random() < 0.5 else -v)
        if rng.random() < 0.5:
            rho.add(-pivot)
            if slack(c, rho) >= 0:
                continue
        elif not 0 <= slack(c, rho) < weight(c, pivot):
            continue
        full = on_accumulator(reduce_rs, c, pivot, rho)
        partial = on_accumulator(reduce_rs, c, pivot, rho, partial=True)
        assert partial.degree >= full.degree
        for l, w in full.terms:
            assert weight(partial, l) >= w
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(6, "strength dominance", f"{checked} triples in {elapsed:.1f}s, 0 violations")


# ---------------------------------------------------------------------------
# Criterion 7: every emitted trace replays.
# ---------------------------------------------------------------------------


def test_criterion_7_trace_round_trip(strategy_matrix, pigeonhole_runs):
    started = time.monotonic()
    checked = 0
    for instance, trace in strategy_matrix.traced_runs:
        check = verify_trace(instance, trace)
        assert check, check.error
        checked += 1
    for key, (result, _, instance) in pigeonhole_runs.items():
        if result.trace is None:
            continue
        check = verify_trace(instance, result.trace)
        assert check, (key, check.error)
        checked += 1
    report(7, "trace round-trip", f"{checked} traces replayed in {time.monotonic() - started:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 8: benchmark CSVs are identical modulo the seconds column.
# ---------------------------------------------------------------------------


def test_criterion_8_bench_determinism(tmp_path):
    d = tmp_path / "instances"
    d.mkdir()
    for name, instance in (
        ("php-3-2", php_instance(3, 2)),
        ("php-4-3", php_instance(4, 3)),
        ("rand", random_instance(7, 11, 9, 88)),
    ):
        with open(d / f"{name}.opb", "w", encoding="ascii") as f:
            write_opb(instance, f)
    csvs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "pbsolve", "bench", str(d),
                "--strategies", "gen-res,partial-rs-both,multiply-weaken",
                "--timeout", "60", "--jobs", "1", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append(out.read_text().splitlines())
    assert csvs[0][0] == CSV_HEADER

    def strip_seconds(lines):
        return [
            ",".join(v for i, v in enumerate(line.split(",")) if i != 3)
            for line in lines
        ]

    assert strip_seconds(csvs[0]) == strip_seconds(csvs[1])
    report(8, "bench determinism", f"{len(csvs[0]) - 1} rows identical modulo seconds")
