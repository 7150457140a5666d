"""Strategy reduction tests: worked derivations and randomized properties."""

import ast
import copy
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pbsolve.analysis import (
    STRATEGIES,
    STRATEGY_IDS,
    Accumulator,
    AnalysisError,
    reduce_genres,
    reduce_multiply_weaken,
    reduce_rs,
    resolve_step,
    weaken_ineffective,
)
from pbsolve.core import Constraint, slack
from pbsolve.solver import SolverConfig
from pbsolve.opb import ParsedInstance
from pbsolve.trace import DerivationTrace, verify_trace
from helpers import (
    as_record,
    asg,
    con,
    divide,
    implies_semantically,
    is_clause,
    lit,
    literals,
    on_accumulator,
    reference_weaken_ineffective,
    replay_steps,
    resolved,
    saturate,
    weight,
)


def genres_reason(conflict, reason, pivot, rho):
    """The reason after gen-res's reduction against ``conflict``."""
    side = Accumulator(reason)
    reduce_genres(side, pivot, *as_record(rho, conflict, reason), weight(conflict, -pivot), slack(conflict, rho))
    return side.constraint()


def rho_after_propagation(base, pivot):
    return base | {pivot}


# The running scenario: a=1, c=d=e=0, then ~b propagated by the reason.
RHO1 = asg(a=1, c=0, d=0, e=0)
RHO1B = rho_after_propagation(RHO1, lit("~b"))
CONFLICT1 = con("5a 4b c d >= 6")
REASON1 = con("6~b 6c 4e f g h >= 7")


class TestStrategyIds:
    def test_exactly_eleven(self):
        assert len(STRATEGY_IDS) == 11
        assert len(set(STRATEGY_IDS)) == 11

    def test_families_and_sides(self):
        # Each row is (conflict-side reduction, reason-side reduction).
        assert STRATEGIES == {
            "gen-res": (None, "gen-res"),
            "rs-both": ("rs", "rs"),
            "rs-conflict": ("rs", None),
            "rs-reason": (None, "rs"),
            "partial-rs-both": ("partial-rs", "partial-rs"),
            "partial-rs-conflict": ("partial-rs", None),
            "partial-rs-reason": (None, "partial-rs"),
            "weaken-ineffective-both": ("weaken-ineffective", "weaken-ineffective"),
            "weaken-ineffective-conflict": ("weaken-ineffective", "gen-res"),
            "weaken-ineffective-reason": (None, "weaken-ineffective"),
            "multiply-weaken": (None, "multiply-weaken"),
        }

    def test_readme_table_matches_the_rows(self):
        # README's "Strategies" table lists each id with its conflict side
        # and reason side; "—" is no reduction, and multiply-weaken's reason
        # cell also names the gen-res guard that always follows it.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("### Strategies", 1)[1]
        cells = {"—": None, "multiply-weaken, then gen-res": "multiply-weaken"}
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                name, conflict, reason = [cell.strip() for cell in line.split("|")[1:4]]
                rows[name.strip("`")] = (cells.get(conflict, conflict), cells.get(reason, reason))
        assert list(rows) == list(STRATEGY_IDS)
        assert rows == STRATEGIES

    def test_command_line_order(self):
        # The order is the default of `bench --strategies`, so it fixes the
        # row order of a bench CSV, and perfbench keeps its own copy.
        assert STRATEGY_IDS == (
            "gen-res",
            "rs-both",
            "rs-conflict",
            "rs-reason",
            "partial-rs-both",
            "partial-rs-conflict",
            "partial-rs-reason",
            "weaken-ineffective-both",
            "weaken-ineffective-conflict",
            "weaken-ineffective-reason",
            "multiply-weaken",
        )
        workloads = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        (copy,) = [
            ast.literal_eval(node.value)
            for node in ast.parse(workloads.read_text()).body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ALL_STRATEGIES"]
        ]
        assert STRATEGY_IDS == copy
        # perfbench's long jobs run the solver's default strategy by name.
        (default,) = [
            ast.literal_eval(node.value)
            for node in ast.parse(workloads.read_text()).body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["DEFAULT_STRATEGY"]
        ]
        assert default == SolverConfig.strategy

    @pytest.mark.parametrize("name", ["rs", "genres"])
    def test_unknown_id_is_rejected_by_the_config(self, name):
        message = f"unknown strategy {name!r} (choose from {', '.join(STRATEGY_IDS)})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverConfig(strategy=name)


class TestReduceGenres:
    def test_reason_weakened_until_safe(self):
        reduced = genres_reason(CONFLICT1, REASON1, lit("~b"), RHO1B)
        assert reduced == con("5~b 5c 4e f >= 5")
        assert slack(reduced, RHO1B) == 1

    def test_already_safe_pair_is_unchanged(self):
        conflict = con("3a 3b >= 3")
        reason = con("~b c >= 1")
        rho = asg(a=0, c=0, b=0)
        assert genres_reason(conflict, reason, lit("~b"), rho) == reason

    def test_random_pairs_cancel_conflicting(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(800):
            setup = _random_resolve_setup(rng, nvars=10)
            if setup is None:
                continue
            conflict, reason, pivot, rho = setup
            reduced = genres_reason(conflict, reason, pivot, rho)
            outcome = resolved(conflict, reason, pivot, rho, "gen-res")
            assert slack(outcome.constraint, rho) < 0
            assert implies_semantically([conflict, reduced], outcome.constraint)
            checked += 1
        assert checked > 100


class TestReduceRs:
    def test_conflict_side(self):
        assert on_accumulator(reduce_rs, CONFLICT1, lit("b"), RHO1B) == con("b c d >= 1")

    def test_reason_side(self):
        assert on_accumulator(reduce_rs, REASON1, lit("~b"), RHO1B) == con("~b c e >= 1")

    def test_unit_pivot_weight_changes_nothing(self):
        c = con("a 2b 2c >= 2")
        rho = asg(b=0)
        assert on_accumulator(reduce_rs, c, lit("a"), rho) == c

    def test_pivot_weight_becomes_one(self):
        rng = random.Random(3)
        for _ in range(200):
            c, pivot, rho = _random_pivot_triple(rng)
            out = on_accumulator(reduce_rs, c, pivot, rho)
            assert weight(out, pivot) == 1
            assert implies_semantically([c], out)


class TestReducePartialRs:
    def test_worked_example(self):
        rho = asg(a=1, b=0, c=0, d=0, e=0)
        out = on_accumulator(reduce_rs, con("8a 7b 7c 2d 2e f >= 11"), lit("b"), rho, partial=True)
        assert out == con("a b c d e >= 2")

    def test_multiples_only_divides(self):
        c = con("4a 2b 2c >= 4")
        rho = asg(c=0)
        assert on_accumulator(reduce_rs, c, lit("b"), rho, partial=True) == divide(c, 2)

    def test_dominates_plain_rs_pointwise(self):
        rng = random.Random(13)
        for _ in range(300):
            c, pivot, rho = _random_pivot_triple(rng)
            full = on_accumulator(reduce_rs, c, pivot, rho)
            partial = on_accumulator(reduce_rs, c, pivot, rho, partial=True)
            assert partial.degree >= full.degree
            for l, w in full.terms:
                assert weight(partial, l) >= w
            assert weight(partial, pivot) == 1
            assert implies_semantically([c], partial)


@st.composite
def rounding_setups(draw, max_vars=7):
    """(conflict, reason, pivot, rho) as a resolve step meets them.

    ``rho`` holds the pivot and leaves some variables free; the reason
    propagates the pivot (its slack under ``rho`` is at least 0 and below the
    pivot's weight) and the conflict holds ``-pivot`` and conflicts (its slack
    under ``rho`` is negative).  Neither side need be saturated.
    """
    n = draw(st.integers(2, max_vars))
    pivot = draw(st.sampled_from((1, -1)))
    rho = {pivot}
    for v in range(2, n + 1):
        choice = draw(st.sampled_from((v, -v, 0)))
        if choice:
            rho.add(choice)

    def side(own, own_weight, slacks):
        terms = {own: own_weight}
        for v in draw(st.sets(st.integers(2, n))):
            terms[draw(st.sampled_from((v, -v)))] = draw(st.integers(1, 12))
        free = sum(w for lit, w in terms.items() if -lit not in rho)
        return Constraint(terms.items(), free - draw(slacks))

    conflict = side(-pivot, draw(st.integers(1, 12)), st.integers(-20, -1))
    rw = draw(st.integers(1, 12))
    reason = side(pivot, rw, st.integers(0, rw - 1))
    return conflict, reason, pivot, rho


class TestRoundedConflictSide:
    """What gen-res's guard needs after a conflict-side rounding (ROADMAP item 14)."""

    @given(rounding_setups(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_rounding_floors_the_slack_and_the_guard_holds_at_once(self, setup, partial):
        # Rounding leaves the conflict's pivot weight 1 and its slack s // r,
        # in full and in partial mode.  With the pivot weight 1 the guard is
        # w_r * s_c + s_r < 0, and 0 <= s_r < w_r after saturation, so any
        # negative s_c passes it before a weakening: the stale slack from
        # before the rounding as well as the exact one.
        conflict, reason, pivot, rho = setup
        stale = slack(conflict, rho)
        rounded = on_accumulator(reduce_rs, conflict, -pivot, rho, partial=partial)
        exact = slack(rounded, rho)
        assert weight(rounded, -pivot) == 1
        assert exact == stale // weight(conflict, -pivot)
        for conflict_slack in (stale, exact):
            side = Accumulator(reason)
            reduce_genres(side, pivot, *as_record(rho, reason), 1, conflict_slack)
            assert side.constraint() == saturate(reason)


class TestWeakenIneffective:
    def test_reason_reduction_keeps_propagation(self):
        rho = asg(a=0, c=0, f=0)
        reason = con("3~a 3~b c d e >= 6")
        side = Accumulator(reason)
        left = weaken_ineffective(side, lit("~b"), *as_record(rho, side))
        assert side.constraint() == con("~b c >= 1")
        assert left == slack(side, rho) == 0

    def test_conflict_reduction_keeps_conflict(self):
        rho = asg(a=0, c=0, f=0, b=0)
        conflict = con("2a b c f >= 2")
        side = Accumulator(conflict)
        left = weaken_ineffective(side, lit("b"), *as_record(rho, side))
        assert side.constraint() == con("a b f >= 1")
        assert left == slack(side, rho) == -1

    def test_follow_up_reduction_strengthens(self):
        rho = asg(a=0, c=0, f=0, b=0)
        conflict = con("3f c d e >= 3")
        side = Accumulator(conflict)
        left = weaken_ineffective(side, None, *as_record(rho, side))
        assert side.constraint() == con("c f >= 1")
        assert left == slack(side, rho) == -1

    def test_one_weakening_run_then_one_saturation(self):
        # Saturating once after the loop gives what saturating after each
        # weakening gave, written as one weaken step and one saturate step.
        trace = DerivationTrace(1)
        side = Accumulator(con("3f c d e >= 3"), trace, 1)
        weaken_ineffective(side, None, *as_record(asg(a=0, c=0, f=0, b=0), side))
        assert side.constraint() == con("c f >= 1")
        assert trace.steps == [("weaken", (1, lit("d"), lit("e"))), ("saturate", (2,))]

    def test_minimal_clause_unchanged(self):
        rho = asg(a=0, b=0)
        c = con("a b >= 1")
        side = Accumulator(c)
        assert weaken_ineffective(side, None, *as_record(rho, side)) == -1
        assert side.constraint() == c

    def test_mode_preconditions(self):
        # The mode follows the kept literal: None or falsified preserves a
        # conflict, so a slack that is not negative is refused.
        with pytest.raises(ValueError, match="^preserve-conflict mode requires a conflicting constraint$"):
            on_accumulator(weaken_ineffective, con("a b >= 1"), None, set())
        with pytest.raises(ValueError, match="^preserve-conflict mode requires a conflicting constraint$"):
            on_accumulator(weaken_ineffective, con("a b c >= 1"), lit("a"), asg(a=0))
        # A non-falsified kept literal must be propagated: a slack from 0 up
        # to below its weight.
        message = "^preserve-propagation mode requires the kept literal to be propagated$"
        with pytest.raises(ValueError, match=message):
            on_accumulator(weaken_ineffective, con("a b c >= 3"), lit("a"), asg(b=0))
        with pytest.raises(ValueError, match=message):
            on_accumulator(weaken_ineffective, con("a b >= 1"), lit("a"), set())

    def test_matches_the_priced_reference(self):
        # The reduction weakens without pricing any trial; the reference
        # prices each one and keeps only those that preserve the role.  On
        # random conflicting and propagating sides, saturated or not, both
        # must give the same constraint, and the returned slack must be the
        # result's slack.
        # The kept literal is drawn falsified, None or non-falsified; the
        # reference names the first a protected literal, has no literal for
        # the second and names the third a pivot.  A side that breaks its
        # mode is refused, unchanged, with that mode's precondition error:
        # in conflict mode a slack of 0 or more, in propagation mode a slack
        # below 0 or at least the kept weight.
        rng = random.Random(17)
        cases = {"kept falsified": 0, "kept none": 0, "propagation": 0, "unsaturated": 0}
        refused = {"conflict": 0, "propagation below 0": 0, "propagation at the kept weight": 0}
        while min(cases.values()) < 1500 or min(refused.values()) < 300:
            c = _random_constraint(rng, 7, saturated=rng.random() < 0.5)
            rho = {v if rng.random() < 0.5 else -v for v in range(1, 8) if rng.random() < 0.6}
            start = slack(c, rho)
            falsified = [l for l in literals(c) if -l in rho]
            free = [l for l in literals(c) if -l not in rho]
            if not free or rng.random() < 0.5:
                keep = rng.choice(falsified) if falsified and rng.random() < 0.5 else None
                mode = "kept none" if keep is None else "kept falsified"
                reference = {} if keep is None else {"protect": keep}
                broken = "conflict" if start >= 0 else None
                message = "^preserve-conflict mode requires a conflicting constraint$"
            else:
                keep = rng.choice(free)
                mode = "propagation"
                reference = {"pivot": keep}
                broken = None
                if start < 0:
                    broken = "propagation below 0"
                elif start >= weight(c, keep):
                    broken = "propagation at the kept weight"
                message = "^preserve-propagation mode requires the kept literal to be propagated$"
            side = Accumulator(c)
            if broken is not None:
                with pytest.raises(ValueError, match=message):
                    weaken_ineffective(side, keep, *as_record(rho, side))
                assert side.constraint() == c
                refused[broken] += 1
                continue
            left = weaken_ineffective(side, keep, *as_record(rho, side))
            assert side.constraint() == reference_weaken_ineffective(c, rho, **reference)
            assert left == slack(side, rho)
            cases[mode] += 1
            cases["unsaturated"] += c != saturate(c)


class TestMultiplyWeaken:
    def test_worked_reduction(self):
        rho = rho_after_propagation(asg(a=0, d=0, e=1), lit("b"))
        side = Accumulator(con("5a 5b 3c 2d e >= 6"))
        assert reduce_multiply_weaken(side, lit("b"), *as_record(rho, side), 3)
        assert side.constraint() == con("3a 3b c 2d >= 3")

    def test_equal_weights_need_no_weakening(self):
        # Pivot weights match and the degree equals them: nothing to do.
        reason = con("3a 3b >= 3")
        rho = asg(a=0, b=1)
        side = Accumulator(reason)
        assert reduce_multiply_weaken(side, lit("b"), *as_record(rho, side), 3)
        assert side.constraint() == reason

    def test_insufficient_ineffective_mass_falls_back(self):
        # Every non-pivot literal is falsified: nothing may be weakened.
        reason = con("5a 5b >= 6")
        rho = asg(a=0, b=1)
        side = Accumulator(reason)
        assert not reduce_multiply_weaken(side, lit("b"), *as_record(rho, side), 2)
        assert side.constraint() == reason

    def test_unsaturated_reason_with_low_degree_falls_back(self):
        # An unsaturated reason can have its pivot weight above its degree;
        # the degree then sits below the target and cannot be reduced to it.
        reason = con("5a 5b c >= 3")
        rho = asg(a=0, b=1)
        side = Accumulator(reason)
        assert not reduce_multiply_weaken(side, lit("b"), *as_record(rho, side), 4)
        assert side.constraint() == reason
        conflict = con("4~b 2a c >= 6")
        rho2 = rho | {lit("~c")}
        out = resolved(conflict, reason, lit("b"), rho2, "multiply-weaken")
        assert out.fallback
        assert slack(out.constraint, rho2) < 0
        assert implies_semantically([conflict, reason], out.constraint)


class TestRuleApplication:
    def test_tautology_raises(self):
        # Weakening 3a away leaves "2b >= 0".
        with pytest.raises(AnalysisError, match="weaken produced a tautology during analysis"):
            on_accumulator(reduce_rs, con("3a 2b >= 3"), lit("b"), set())

    def test_output_equal_to_input_is_not_recorded(self):
        clause = con("a b c >= 1")
        reason = con("3a 3b >= 3")
        safe_reason = con("~b c >= 1")
        trace = DerivationTrace(3)
        clause_id, reason_id, safe_id = 1, 2, 3
        # No division: the pivot weight is 1.
        side = Accumulator(clause, trace, clause_id)
        reduce_rs(side, lit("a"), *as_record(set(), side))
        assert side.id == clause_id and side.constraint() == clause
        # Multiplication by nu == 1, nothing to weaken, already saturated.
        rho = asg(a=0, b=1)
        side = Accumulator(reason, trace, reason_id)
        assert reduce_multiply_weaken(side, lit("b"), *as_record(rho, side), 3)
        assert side.id == reason_id and side.constraint() == reason
        # A saturation that changes nothing, on a pair that is already safe.
        rho = asg(a=0, c=0, b=0)
        side = Accumulator(safe_reason, trace, safe_id)
        reduce_genres(side, lit("~b"), *as_record(rho, side, reason), weight(reason, lit("b")), slack(reason, rho))
        assert side.id == safe_id and side.constraint() == safe_reason
        assert trace.steps == []

    @pytest.mark.parametrize("traced", [False, True])
    def test_cancel_appends_and_constraint_sorts(self, traced):
        # The literals a cancellation adds stay where they were appended,
        # traced or not, and constraint() hands the value on in variable
        # order.  Traced, the step is its rule and arguments only.
        conflict, reason = con("~b 2e >= 2"), con("a b c >= 1")
        learned = con("a c 2e >= 2")
        trace = DerivationTrace(2) if traced else None
        side = Accumulator(conflict, trace, 1 if traced else None)
        side.cancel(Accumulator(reason, trace, 2 if traced else None), lit("b"))
        assert list(side.weights) == [lit("e"), lit("a"), lit("c")]
        c = side.constraint()
        assert (c.terms, c.degree, c.max_weight) == (learned.terms, 2, 2)
        if traced:
            assert trace.steps == [("cancel", (1, 2, lit("b")))]
            assert side.id == 3


class TestResolveStep:
    def test_genres_chain(self):
        out = resolved(CONFLICT1, REASON1, lit("~b"), RHO1B, "gen-res")
        assert out.constraint == con("25a 25c 16e 5d 4f >= 30")
        assert slack(out.constraint, RHO1B) == -1

    def test_rs_both_chain(self):
        out = resolved(CONFLICT1, REASON1, lit("~b"), RHO1B, "rs-both")
        assert out.constraint == con("c d e >= 1")

    def test_multiply_weaken_chain(self):
        rho = rho_after_propagation(asg(a=0, d=0, e=1), lit("b"))
        out = resolved(
            con("3~b 2a 2d ~e >= 5"), con("5a 5b 3c 2d e >= 6"), lit("b"), rho,
            "multiply-weaken",
        )
        assert out.constraint == con("5a 4d c ~e >= 5")
        assert not out.fallback

    def test_weaken_ineffective_both_resolution(self):
        rho = rho_after_propagation(asg(a=0, c=0, f=0), lit("~b"))
        out = resolved(
            con("2a b c f >= 2"), con("3~a 3~b c d e >= 6"), lit("~b"), rho,
            "weaken-ineffective-both",
        )
        assert out.constraint == con("a c f >= 1")
        assert is_clause(out.constraint)

    def test_weaken_ineffective_conflict_keeps_reason_strength(self):
        rho = rho_after_propagation(asg(a=0, c=0, f=0), lit("~b"))
        out = resolved(
            con("2a b c f >= 2"), con("3~a 3~b c d e >= 6"), lit("~b"), rho,
            "weaken-ineffective-conflict",
        )
        assert out.constraint == con("3f c d e >= 3")

    def test_precondition_failures(self):
        with pytest.raises(ValueError):
            resolved(CONFLICT1, REASON1, lit("~b"), set(), "gen-res")
        with pytest.raises(ValueError):
            resolved(CONFLICT1, con("c d >= 1"), lit("~b"), RHO1B, "gen-res")

    def test_reason_without_the_pivot_records_no_step(self):
        trace = DerivationTrace(2)
        side = Accumulator(CONFLICT1, trace, 1)
        reason = con("c d >= 1")
        reduced = Accumulator(reason, trace, 2)
        with pytest.raises(ValueError, match="^the pivot does not occur in the reason side$"):
            record = as_record(RHO1B, CONFLICT1, REASON1)
            resolve_step(side, reduced, lit("~b"), *record, "gen-res", slack(CONFLICT1, RHO1B))
        assert trace.steps == []
        assert side.constraint() == CONFLICT1

    def test_steps_replay_bit_exactly(self):
        trace = DerivationTrace(2)
        cid, rid = 1, 2
        side = Accumulator(CONFLICT1, trace, cid)
        record = as_record(RHO1B, CONFLICT1, REASON1)
        resolve_step(side, Accumulator(REASON1, trace, rid), lit("~b"), *record, "gen-res", slack(CONFLICT1, RHO1B))
        assert trace.steps
        instance = ParsedInstance(declared_vars=8, constraints=[CONFLICT1, REASON1])
        assert replay_steps(instance, trace)[side.id] == side.constraint()
        trace.learned.append((side.id, side.constraint()))
        check = verify_trace(instance, trace)
        assert check, check.error

    def test_constraint_leaves_the_trace_unchanged(self):
        trace = DerivationTrace(2)
        side = Accumulator(CONFLICT1, trace, 1)
        reason = Accumulator(REASON1, trace, 2)
        record = as_record(RHO1B, CONFLICT1, REASON1)
        resolve_step(side, reason, lit("~b"), *record, "gen-res", slack(CONFLICT1, RHO1B))
        before = {name: copy.copy(value) for name, value in vars(trace).items()}
        out = side.constraint()
        assert vars(trace) == before
        assert side.id == trace.inputs + len(trace.steps)
        instance = ParsedInstance(declared_vars=8, constraints=[CONFLICT1, REASON1])
        assert out == replay_steps(instance, trace)[side.id]

    def test_every_strategy_is_conflicting_and_implied(self):
        rng = random.Random(23)
        per_strategy = {s: 0 for s in STRATEGY_IDS}
        for _ in range(800):
            setup = _random_resolve_setup(rng, nvars=9)
            if setup is None:
                continue
            conflict, reason, pivot, rho = setup
            for strategy in STRATEGY_IDS:
                out = resolved(conflict, reason, pivot, rho, strategy)
                assert slack(out.constraint, rho) < 0
                assert implies_semantically([conflict, reason], out.constraint)
                per_strategy[strategy] += 1
        assert min(per_strategy.values()) > 100

    def test_weaken_ineffective_stuck_state_stays_sound(self):
        # Weakening plus saturation cannot always reach degree one: here every
        # remaining weight equals the degree, so any further weakening is a
        # tautology and the reduced side is only clause-EQUIVALENT.  The
        # resolve output must still be conflicting and implied.
        rho = {-1, -2, -3, -9}
        conflict = con("3a 3b 2c >= 5")
        reduced = on_accumulator(weaken_ineffective, conflict, lit("a"), rho)
        assert reduced == con("3a 3b >= 3")
        assert not is_clause(reduced)
        reason = Constraint([(-1, 2), (9, 1)], 2)  # propagated ~a
        rho_after = rho | {-1}
        out = resolved(conflict, reason, lit("~a"), rho_after, "weaken-ineffective-both")
        assert slack(out.constraint, rho_after) < 0
        assert implies_semantically([conflict, reason], out.constraint)


def _random_constraint(rng, nvars, max_weight=6, *, saturated=True):
    width = rng.randint(1, nvars)
    variables = rng.sample(range(1, nvars + 1), width)
    terms = []
    total = 0
    for v in variables:
        w = rng.randint(1, max_weight)
        total += w
        terms.append((v if rng.random() < 0.5 else -v, w))
    degree = rng.randint(1, total)
    c = Constraint(terms, degree)
    return saturate(c) if saturated else c


def _random_pivot_triple(rng, nvars=8):
    """A (constraint, pivot, rho) triple in a valid analysis role.

    The constraint either conflicts under rho (pivot falsified) or propagates
    the pivot (slack below the pivot weight); arbitrary states outside those
    roles would let weakening chains legally reach tautologies.
    """
    while True:
        c = _random_constraint(rng, nvars)
        pivot = rng.choice(literals(c))
        rho = set()
        for v in range(1, nvars + 1):
            if v != abs(pivot) and rng.random() < 0.5:
                rho.add(v if rng.random() < 0.5 else -v)
        if rng.random() < 0.5:
            rho.add(-pivot)  # falsified pivot: conflict role
            if slack(c, rho) < 0:
                return c, pivot, rho
        else:
            if 0 <= slack(c, rho) < weight(c, pivot):
                return c, pivot, rho


def _random_resolve_setup(rng, nvars=9):
    """A (conflict, reason, pivot, rho) tuple satisfying the analysis setting.

    ``rho`` plays the trail prefix through the pivot: the reason propagates
    the pivot under rho minus the pivot, and the conflict is falsified under
    rho.  Returns None when the random draw misses those conditions.
    """
    reason = _random_constraint(rng, nvars)
    pivot = rng.choice(literals(reason))
    conflict = _random_constraint(rng, nvars)
    if -pivot not in literals(conflict):
        flipped = {l: w for l, w in conflict.terms if abs(l) != abs(pivot)}
        flipped[-pivot] = rng.randint(1, 4)
        conflict = saturate(Constraint(flipped.items(), conflict.degree))
    rho: set[int] = set()
    for l, _ in (*reason.terms, *conflict.terms):
        v = abs(l)
        if v == abs(pivot) or v in rho or -v in rho:
            continue
        if rng.random() < 0.7:
            rho.add(-l)  # falsify this occurrence
    if not 0 <= slack(reason, rho) < weight(reason, pivot):
        return None
    rho.add(pivot)
    if slack(conflict, rho) >= 0:
        return None
    return conflict, reason, pivot, rho
