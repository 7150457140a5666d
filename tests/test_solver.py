"""Search-loop tests: end-to-end solving, analysis walk, heuristics, budgets."""

import copy
import dataclasses
import hashlib
import io
import math
import random
import time

import pytest

import pbsolve.analysis
import pbsolve.solver
from pbsolve.analysis import STRATEGIES, STRATEGY_IDS, AnalysisError
from pbsolve.core import Constraint, slack
from pbsolve.generators import balanced_instance, php_instance
from pbsolve.opb import ParsedInstance, SAT, UNKNOWN, UNSAT, parse_opb, write_opb
from pbsolve.solver import (
    AnalysisSoundnessError,
    Solver,
    SolverConfig,
    luby,
    solve,
)
from pbsolve.trace import verify_trace
from helpers import (
    assertion_level,
    assignment_at_level,
    backjump_level,
    brute_force_status,
    bump_one_at_a_time,
    con,
    falsified_at,
    implies_semantically,
    is_assertive,
    linear_decide_literal,
    literals,
    observe_resolve_steps,
    propagation_candidates,
    random_instance,
    reference_resolve_step,
    replay_steps,
    value,
    var,
    verify_slacks,
)


def oracle_assertion_level(c, engine):
    try:
        return backjump_level(c, engine)
    except ValueError:
        return None


def scenario_solver(strategy="gen-res", **config):
    """The running two-constraint scenario, one decision away from conflict.

    Decisions are staged before any propagation runs; the chosen order keeps
    the to-be-falsified constraint non-assertive below the conflict level, so
    analysis must perform its first cancellation.
    """
    instance = ParsedInstance(
        declared_vars=8,
        constraints=[con("6~b 6c 4e f g h >= 7"), con("5a 4b c d >= 6")],
    )
    solver = Solver(instance, SolverConfig(strategy=strategy, **config))
    for decision in (var("a"), -var("e"), -var("c"), -var("d")):
        solver.engine.assume(decision)
    return solver


class TestSolveEndToEnd:
    def test_single_unit_constraint(self):
        result = solve(ParsedInstance(declared_vars=1, constraints=[con("a >= 1")]))
        assert result.status == SAT
        assert result.model == {1: True}

    def test_pigeonhole_unsat_under_every_strategy(self):
        instance = php_instance(3, 2)
        for strategy in STRATEGY_IDS:
            result = solve(instance, SolverConfig(strategy=strategy))
            assert result.status == UNSAT, strategy
            assert result.stats.propagations > 0
            assert result.stats.conflicts > 0

    def test_trivially_false_input(self):
        instance = ParsedInstance(declared_vars=1, constraints=[Constraint((), 1)])
        assert solve(instance).status == UNSAT

    def test_empty_instance_is_sat(self):
        result = solve(ParsedInstance(declared_vars=2, constraints=[]))
        assert result.status == SAT
        assert result.model == {1: False, 2: False}

    def test_declared_but_unused_variables_get_values(self):
        instance = ParsedInstance(declared_vars=4, constraints=[con("a >= 1")])
        result = solve(instance)
        assert result.status == SAT
        assert set(result.model) == {1, 2, 3, 4}

    def test_a_model_that_violates_an_input_row_is_refused(self):
        solver = Solver(ParsedInstance(declared_vars=2, constraints=[con("a >= 1")]))
        solver.engine.assign(-var("a"), None)
        with pytest.raises(AnalysisSoundnessError, match="model does not satisfy 1 x1 >= 1"):
            solver._checked_model()

    def test_status_matches_enumeration_oracle(self):
        strategies = ("gen-res", "rs-both", "partial-rs-reason", "multiply-weaken")
        for seed in range(40):
            instance = random_instance(7, 10, 8, seed)
            expected = brute_force_status(instance)
            for strategy in strategies:
                result = solve(instance, SolverConfig(strategy=strategy))
                assert result.status == expected, (seed, strategy)
                if result.status == SAT:
                    assert all(c.satisfied_by(result.model) for c in instance.constraints)

    def test_conflict_budget_yields_unknown(self):
        instance = php_instance(8, 7)
        result = solve(instance, SolverConfig(strategy="weaken-ineffective-both", conflict_budget=50))
        assert result.status == UNKNOWN
        assert result.stats.conflicts >= 50

    def test_zero_conflict_budget_analyzes_nothing(self):
        result = solve(php_instance(5, 4), SolverConfig(strategy="rs-both", conflict_budget=0))
        assert result.status == UNKNOWN
        assert result.stats.conflicts == 0 and result.stats.learned == 0

    def test_time_budget_yields_unknown(self):
        instance = php_instance(9, 8)
        result = solve(
            instance, SolverConfig(strategy="weaken-ineffective-both", time_budget=0.2)
        )
        assert result.status == UNKNOWN
        assert result.stats.seconds < 5.0

    @pytest.mark.parametrize("budget", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_bad_time_budget_is_rejected(self, budget):
        with pytest.raises(ValueError, match="time budget must be >= 0"):
            SolverConfig(time_budget=budget)

    def test_negative_conflict_budget_is_rejected(self):
        with pytest.raises(ValueError, match="^conflict budget must be >= 0$"):
            SolverConfig(conflict_budget=-1)

    @pytest.mark.parametrize(
        "field, value", [("strategy", "bogus"), ("conflict_budget", -1), ("time_budget", float("nan"))]
    )
    def test_config_fields_cannot_be_reassigned(self, field, value):
        config = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)
        assert config == SolverConfig()

    def test_time_budget_overshoot_is_bounded(self):
        started = time.monotonic()
        result = solve(
            php_instance(8, 7), SolverConfig(strategy="weaken-ineffective-reason", time_budget=1)
        )
        assert result.status == UNKNOWN
        assert time.monotonic() - started < 5.0

    def test_deadline_is_checked_inside_analysis(self, monkeypatch):
        # The first conflict of php-8-7 under multiply-weaken takes 4 resolve
        # steps.  With the deadline already past when analysis starts, the
        # walk stops after one step and learns nothing.
        steps = []
        observe_resolve_steps(monkeypatch, lambda *step: steps.append(step))
        analyze = Solver.analyze_conflict

        def expired(solver, conflict_cid):
            solver._deadline = time.monotonic() - 1.0
            return analyze(solver, conflict_cid)

        monkeypatch.setattr(Solver, "analyze_conflict", expired)
        config = SolverConfig(strategy="multiply-weaken", time_budget=3600, emit_trace=True)
        result = solve(php_instance(8, 7), config)
        assert result.status == UNKNOWN
        assert len(steps) == 1
        assert result.stats.conflicts == 1 and result.stats.learned == 0
        assert result.trace.learned == [] and result.trace.final is None

    def test_learned_constraints_are_implied(self):
        # Every step's output, replayed through the pure rules, is implied
        # by the inputs, and each learned constraint is its step's output.
        # Seeds 3 and 41 learn nothing; the others take 2 to 6 steps.
        checked = 0
        for seed in (0, 3, 14, 25, 41, 49, 57):
            instance = random_instance(6, 9, 6, seed)
            result = solve(instance, SolverConfig(strategy="gen-res", emit_trace=True))
            inputs = list(instance.constraints)
            by_id = replay_steps(instance, result.trace)
            for step_id in range(len(inputs) + 1, len(by_id) + 1):
                assert implies_semantically(inputs, by_id[step_id])
                checked += 1
            for learned_id, learned in result.trace.learned:
                assert by_id[learned_id] == learned
        assert checked == 18

    def test_gen_res_reduction_saturates_unsaturated_reasons(self):
        # The package's rows are saturated.  Raising every weight equal to a
        # row's degree by 5 keeps the row's 0/1 solutions and unsaturates it;
        # unsaturated reasons used to end gen-res's reduction with "no
        # weakenable literal left in a reason with high slack", as 9 of these
        # 13 runs do when the reduction skips its first saturation.  The
        # seeds are the first ones each strategy refutes.
        seeds = {"gen-res": (0, 1, 3), "multiply-weaken": (0, 1, 3, 4, 5, 8, 18, 19, 20, 21)}
        for strategy, chosen in seeds.items():
            for seed in chosen:
                drawn = balanced_instance(30, 120, seed, "test")
                rows = [
                    Constraint([(lit, w + 5 if w == c.degree else w) for lit, w in c.terms], c.degree)
                    for c in drawn.constraints
                ]
                assert sum(c.max_weight > c.degree for c in rows) >= 60
                instance = ParsedInstance(name=drawn.name, declared_vars=drawn.declared_vars, constraints=rows)
                config = SolverConfig(strategy=strategy, conflict_budget=300, emit_trace=True)
                result = solve(instance, config)
                assert result.status == UNSAT, (strategy, seed)
                check = verify_trace(instance, result.trace)
                assert check, (strategy, seed, check.error)

    def test_determinism_identical_runs(self):
        instance = random_instance(8, 12, 9, 77)
        first = solve(instance, SolverConfig(strategy="rs-both", emit_trace=True))
        second = solve(instance, SolverConfig(strategy="rs-both", emit_trace=True))
        assert first.status == second.status
        for field in ("conflicts", "decisions", "propagations", "restarts", "learned"):
            assert getattr(first.stats, field) == getattr(second.stats, field)
        assert first.trace.steps == second.trace.steps


class TestAnalyzeConflict:
    def test_first_step_already_asserts(self):
        solver = scenario_solver("gen-res")
        conflict = solver.engine.propagate_all()
        assert conflict == 1
        learned, _, level, _ = solver.analyze_conflict(conflict)
        assert learned == con("25a 25c 16e 5d 4f >= 30")
        assert level == 3

    def test_rs_both_learns_clause(self):
        solver = scenario_solver("rs-both")
        conflict = solver.engine.propagate_all()
        learned, _, level, _ = solver.analyze_conflict(conflict)
        assert learned == con("c d e >= 1")
        assert level == 3

    def test_incomplete_propagation_is_an_error_at_the_root_exit(self):
        instance = ParsedInstance(declared_vars=3, constraints=[con("a b >= 1")])
        solver = Solver(instance, SolverConfig())
        # Stage the decisions without propagating in between: the clause is
        # falsified at level 3 but already propagates b at level 2, a state
        # the search never reaches.  The walk resolves nothing, and its
        # slack is no longer negative when it reaches the root.
        solver.engine.assume(-var("c"))
        solver.engine.assume(-var("a"))
        solver.engine.assume(-var("b"))
        message = "root exit with slack 1: propagation was incomplete"
        with pytest.raises(AnalysisError, match=f"^{message}$"):
            solver.analyze_conflict(0)

    def test_conflicting_constraint_never_asserts_below_its_level(self, monkeypatch):
        # The search decides only at a propagation fixpoint, so the walk
        # needs no check of the conflicting constraint itself: the oracle
        # finds no level below the conflict's at which it asserts.
        analyze = Solver.analyze_conflict
        checked = []

        def check_first(solver, conflict_cid):
            engine = solver.engine
            if engine.current_level > 0:
                with pytest.raises(ValueError, match="not assertive"):
                    backjump_level(engine.constraints[conflict_cid], engine)
                checked.append(conflict_cid)
            return analyze(solver, conflict_cid)

        monkeypatch.setattr(Solver, "analyze_conflict", check_first)
        instances = [php_instance(6, 5), php_instance(7, 6)]
        instances += [balanced_instance(30, 120, 5, f"test-{i}") for i in range(4)]
        for instance in instances:
            for strategy in STRATEGY_IDS:
                solve(instance, SolverConfig(strategy=strategy, conflict_budget=200))
        assert len(checked) > 3000

    def test_root_exit_is_the_final_conflict(self, monkeypatch):
        # Every strategy refutes php-4-3 through the walk's root exit, which
        # returns the constraint and its trace id with level and slack None; the
        # trace's final conflict is the record of that id, which holds that
        # constraint, and the checker accepts the trace.
        analyze = Solver.analyze_conflict
        exits = []

        def recorded(solver, conflict_cid):
            analyzed = analyze(solver, conflict_cid)
            exits.append(analyzed)
            return analyzed

        monkeypatch.setattr(Solver, "analyze_conflict", recorded)
        instance = php_instance(4, 3)
        for strategy in STRATEGY_IDS:
            exits.clear()
            result = solve(instance, SolverConfig(strategy=strategy, emit_trace=True))
            assert result.status == UNSAT, strategy
            root, root_id, level, slack = exits[-1]
            assert level is None and slack is None
            assert all(other[2] is not None and other[3] is not None for other in exits[:-1])
            assert result.trace.final == root_id
            assert replay_steps(instance, result.trace)[root_id] == root
            check = verify_trace(instance, result.trace)
            assert check, (strategy, check.error)

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_learned_ids_name_the_engine_learned_constraints(self, strategy):
        # Too few conflicts for a database reduction: every learned
        # constraint is still in the engine, after the inputs, in the order
        # it was learned, and each learned id names the step whose output
        # it is.
        instance = php_instance(5, 4)
        solver = Solver(instance, SolverConfig(strategy=strategy, emit_trace=True))
        result = solver.solve()
        learned = solver.engine.constraints[len(instance.constraints):]
        assert len(learned) == result.stats.learned > 0
        outputs = replay_steps(instance, result.trace)
        assert [outputs[i] for i, _ in result.trace.learned] == learned
        assert [c for _, c in result.trace.learned] == learned

    def test_learned_constraint_propagates_after_backjump(self):
        instances = [php_instance(5, 4)] + [balanced_instance(30, 120, 3, f"test-{i}") for i in range(2)]
        rounds = 0
        for instance in instances:
            solver = Solver(instance, SolverConfig(strategy="partial-rs-both"))
            engine = solver.engine
            conflict = engine.propagate_all()
            for _ in range(20):
                while conflict is None and len(engine.trail) < solver.nvars:
                    solver._decide()
                    conflict = engine.propagate_all()
                if conflict is None or engine.current_level == 0:
                    break
                learned, trace_id, level, learned_slack = solver.analyze_conflict(conflict)
                solver._backjump_and_learn(learned, trace_id, level, learned_slack)
                assert engine.current_level == level
                conflict = engine.propagate_all()
                if conflict is None:
                    assert propagation_candidates(learned, set(engine.trail)) == ()
                rounds += 1
        assert rounds >= 10


class TestAccumulatorMatchesReference:
    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_every_step_matches_the_constraint_level_reference(self, strategy, monkeypatch):
        # The solver's in-place accumulator against the composition of the
        # pure rules, on the conflict, reason, pivot and assignment of every
        # resolve step of a real search.  analyze_conflict hands each step's
        # returned slack to the next step instead of recomputing it; both
        # must equal a full recomputation.
        steps = []

        def check(conflict, reason, pivot, rho, outcome):
            assert outcome.given_slack == slack(conflict, rho)
            assert outcome.slack == slack(outcome.constraint, rho)
            assert outcome == reference_resolve_step(conflict, reason, pivot, rho, strategy)
            steps.append(outcome.fallback)

        observe_resolve_steps(monkeypatch, check)
        for seed in (1, 2):
            instance = balanced_instance(30, 120, seed, "test")
            solve(instance, SolverConfig(strategy=strategy, conflict_budget=100))
        assert len(steps) >= 800
        if strategy == "multiply-weaken":
            assert any(steps) and not all(steps)

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_learned_constraints_equal_validated_ones(self, strategy, monkeypatch):
        # Every constraint the walk hands on, learned or a root conflict, is
        # built from the accumulator's terms put back in variable order.
        # Built from the terms in whatever order they stand, which the
        # constructor sorts and checks, it must be the same constraint.
        built = []
        unsorted = []
        constraint = pbsolve.analysis.Accumulator.constraint

        def checked(side, *pairs):
            unsorted.append(list(side.weights) != sorted(side.weights, key=abs))
            c = constraint(side, *pairs)
            validated = Constraint(side.terms, side.degree)
            assert (c.terms, c.degree, c.max_weight) == (validated.terms, validated.degree, validated.max_weight)
            built.append(c)
            return c

        monkeypatch.setattr(pbsolve.analysis.Accumulator, "constraint", checked)
        assert solve(php_instance(6, 5), SolverConfig(strategy=strategy)).status == UNSAT
        for seed in (1, 2):
            instance = balanced_instance(30, 120, seed, "test")
            solve(instance, SolverConfig(strategy=strategy, conflict_budget=100))
        # 134-341 constraints per strategy, most of them out of order.
        assert len(built) >= 120
        assert 2 * sum(unsorted) >= len(built)

    def test_observers_may_keep_the_assignment(self, monkeypatch):
        # The walk reads the engine's record, which holds the whole trail, so
        # an observer gets a set of its own, the trail prefix through the
        # pivot: a kept one still holds its pivot after the walk moves on.
        kept = []
        observe_resolve_steps(monkeypatch, lambda c, r, pivot, rho, o: kept.append((pivot, rho)))
        solve(balanced_instance(30, 120, 1, "test"), SolverConfig(conflict_budget=50))
        assert len(kept) > 100
        assert all(pivot in rho for pivot, rho in kept)

    # weaken-ineffective-both and -conflict weaken this conflict side to a
    # clause, whose resolvent asserts at level 1 before the walk reaches b.
    @pytest.mark.parametrize(
        "strategy",
        [s for s in STRATEGY_IDS if s not in ("weaken-ineffective-both", "weaken-ineffective-conflict")],
    )
    def test_slack_rises_after_a_skipped_decision(self, strategy, monkeypatch):
        # Level 1: decision a, then c and g propagated.  Level 2: decision b,
        # then e propagated.  Resolving the conflict on e brings in ~b, and
        # the result is still conflicting at level 1, so the walk skips the
        # decision b and adds the weight of ~b to the conflict side's slack
        # before it resolves on g and c.  Every step checks the slack it is
        # handed against a full recomputation.
        instance = ParsedInstance(
            declared_vars=7,
            constraints=[con("~a c >= 1"), con("~a g >= 1"), con("~b e >= 1"), con("~c ~e ~g >= 2")],
        )
        solver = Solver(instance, SolverConfig(strategy=strategy))
        engine = solver.engine
        engine.assume(var("a"))
        engine.assign(var("c"), 0)
        engine.assign(var("g"), 1)
        engine.assume(var("b"))
        engine.assign(var("e"), 2)
        after_skip = []

        def check(conflict, reason, pivot, rho, outcome):
            assert outcome.given_slack == slack(conflict, rho)
            assert outcome.slack == slack(outcome.constraint, rho)
            if -var("b") in literals(conflict) and var("b") not in rho:
                after_skip.append(pivot)

        observe_resolve_steps(monkeypatch, check)
        learned, _, level, _ = solver.analyze_conflict(3)
        assert after_skip == [var("g"), var("c")]
        assert learned == con("2~a ~b >= 2") and level == 0


class TestFalsifiedAtTheStep:
    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_the_record_agrees_with_the_trail_prefix(self, strategy, monkeypatch):
        # A resolve step reads the engine's record and its pivot's trail
        # index p, not a set of true literals.  That set, the trail prefix
        # through p, is the oracle: for every literal of both sides, falsified
        # at the step as read off the record must be ``-lit in rho``, and
        # ``slack_at``, analysis's pricing on the record, must equal
        # ``core.slack`` under it.  Literals falsified after p occur, so the
        # bound on t is tested, not only the sign of the slot.
        step = pbsolve.solver.resolve_step
        engines = []
        pivots = []
        later = []

        def checked_step(conflict, reason, pivot, index, p, *args):
            engine = engines[-1]
            assert index is engine.index and engine.trail[p] == pivot
            rho = set(engine.trail[: p + 1])
            for side in (conflict, reason):
                for l in side.weights:
                    assert falsified_at(index, p, l) == (-l in rho)
                    later.append(-l in engine.trail[p + 1 :])
                assert pbsolve.analysis.slack_at(side, index, p) == slack(side, rho)
            pivots.append(pivot)
            return step(conflict, reason, pivot, index, p, *args)

        monkeypatch.setattr(pbsolve.solver, "resolve_step", checked_step)
        instances = [php_instance(9, 8)] + [balanced_instance(30, 120, seed, "test") for seed in range(1, 5)]
        for instance in instances:
            solver = Solver(instance, SolverConfig(strategy=strategy, conflict_budget=100))
            engines.append(solver.engine)
            solver.solve()
        # 2,083-2,984 steps per strategy, and 358-1,000 literals falsified
        # after their step's pivot.
        assert len(pivots) >= 2000
        assert sum(later) >= 300


class TestSharedTerms:
    """A solver's learned constraints share each equal ``(lit, weight)`` term as one object."""

    @staticmethod
    def learned_terms(solver):
        learned = solver.engine.constraints[len(solver.instance.constraints):]
        return [t for c in learned if c is not None for t in c.terms]

    def test_equal_learned_terms_are_one_object(self):
        solver = Solver(php_instance(9, 8), SolverConfig(strategy="rs-both"))
        assert solver.solve().status == UNSAT
        terms = self.learned_terms(solver)
        ids: dict[tuple[int, int], set[int]] = {}
        for t in terms:
            ids.setdefault(t, set()).add(id(t))
        assert len(terms) > 2 * len(ids)
        assert all(len(same) == 1 for same in ids.values())

    def test_solvers_share_no_term(self):
        first, second = (Solver(php_instance(9, 8), SolverConfig(strategy="rs-both")) for _ in range(2))
        for solver in (first, second):
            assert solver.solve().status == UNSAT
        a, b = self.learned_terms(first), self.learned_terms(second)
        assert a == b
        assert len({id(t) for t in a}) < len(a)
        assert not {id(t) for t in a} & {id(t) for t in b}

    def test_bare_constraint_builds_fresh_terms(self):
        side = pbsolve.analysis.Accumulator(Constraint([(1, 2), (2, 2)], 3))
        assert side.constraint() == side.constraint()
        assert side.constraint().terms[0] is not side.constraint().terms[0]


class TestStepPricing:
    @pytest.mark.parametrize(
        "strategy",
        [s for s, (_, on_reason) in STRATEGIES.items() if on_reason not in ("gen-res", "multiply-weaken")],
    )
    def test_a_step_prices_only_in_its_post_check(self, strategy, monkeypatch):
        # Only gen-res's guard loop, which multiply-weaken ends in too,
        # prices a side from scratch while reducing.  Every other row reads
        # the slacks it needs off passes it already makes, so a step calls
        # ``slack`` never, and the walk prices the conflict side it returns
        # in exactly one pass after it.
        priced = []
        steps = []
        passes = []
        price = pbsolve.analysis.slack_at
        step = pbsolve.solver.resolve_step
        settle = pbsolve.solver.settle

        def counted_slack(c, index, p):
            priced.append(c.constraint())
            return price(c, index, p)

        def counted_step(conflict, *args):
            result = step(conflict, *args)
            steps.append(conflict)
            return result

        def counted_settle(side, engine, p):
            assert steps and steps[-1] is side
            passes.append(len(steps))
            return settle(side, engine, p)

        monkeypatch.setattr(pbsolve.analysis, "slack_at", counted_slack)
        monkeypatch.setattr(pbsolve.solver, "resolve_step", counted_step)
        monkeypatch.setattr(pbsolve.solver, "settle", counted_settle)
        assert solve(php_instance(6, 5), SolverConfig(strategy=strategy)).status == UNSAT
        for seed in (1, 2):
            instance = balanced_instance(30, 120, seed, "test")
            solve(instance, SolverConfig(strategy=strategy, conflict_budget=100))
        assert len(steps) >= 800
        assert priced == []
        assert passes == list(range(1, len(steps) + 1))

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_the_pass_after_each_step_matches_its_references(self, strategy, monkeypatch):
        # The walk's one pass after each cancellation returns the conflict
        # side's slack under the step's assignment, its assertion level and
        # its slack at that level; they must equal a full recomputation, the
        # level-by-level oracle and a recomputation under the trail prefix
        # up to that level, the slack the engine takes it with.  The step's
        # assignment is the trail prefix through the pivot, at index ``p``.
        checked = []
        settle = pbsolve.solver.settle

        def checked_settle(side, engine, p):
            after, level, level_slack = settle(side, engine, p)
            cur = side.constraint()
            assert after == slack(cur, set(engine.trail[: p + 1]))
            assert level == oracle_assertion_level(cur, engine)
            if level is None:
                assert level_slack is None
            else:
                assert level_slack == slack(cur, assignment_at_level(engine, level))
            checked.append(level is not None)
            return after, level, level_slack

        monkeypatch.setattr(pbsolve.solver, "settle", checked_settle)
        solve(php_instance(9, 8), SolverConfig(strategy=strategy, conflict_budget=100))
        for seed in range(1, 5):
            instance = balanced_instance(30, 120, seed, "test")
            solve(instance, SolverConfig(strategy=strategy, conflict_budget=100))
        assert len(checked) >= 2000
        assert sum(checked) >= 200


class TestAssertiveness:
    def test_assertion_levels_in_scenario(self):
        solver = scenario_solver()
        solver.engine.propagate_all()
        learned = con("25a 25c 16e 5d 4f >= 30")
        assert not is_assertive(learned, solver.engine, 2)
        assert is_assertive(learned, solver.engine, 3)
        assert backjump_level(learned, solver.engine) == 3
        assert assertion_level(solver.engine, learned) == 3

    def test_clause_asserts_at_second_highest_level(self):
        solver = scenario_solver()
        solver.engine.propagate_all()
        clause = con("c d e >= 1")
        # c@2, d@3 falsified, e@4: one unassigned literal below level 4.
        assert backjump_level(clause, solver.engine) == 3

    def test_unit_constraint_asserts_at_root(self):
        solver = scenario_solver()
        solver.engine.propagate_all()
        assert backjump_level(con("3z >= 3"), solver.engine) == 0

    def test_conflicting_restriction_is_not_assertive(self):
        solver = scenario_solver()
        solver.engine.propagate_all()
        assert not is_assertive(con("e >= 1"), solver.engine, 4)

    def test_sweep_agrees_with_definition(self):
        rng = random.Random(6)
        for seed in range(25):
            instance = random_instance(7, 9, 6, 500 + seed)
            solver = Solver(instance, SolverConfig())
            engine = solver.engine
            engine.propagate_all()
            for v in rng.sample(range(1, 8), 4):
                if value(engine, v) is None:
                    engine.assume(v if rng.random() < 0.5 else -v)
                    if engine.propagate_all() is not None:
                        break
            probe = instance.constraints[rng.randrange(len(instance.constraints))]
            expected = None
            for level in range(engine.current_level):
                if is_assertive(probe, engine, level):
                    expected = level
                    break
            assert assertion_level(solver.engine, probe) == expected

    def test_matches_oracle_on_wide_constraints_and_many_levels(self, monkeypatch):
        rng = random.Random(13)
        instances = [php_instance(9, 8)] + [balanced_instance(30, 120, 13, f"test-{i}") for i in range(5)]
        probes = asserting = 0
        observe_resolve_steps(monkeypatch, lambda *step: learned.append(step[-1].constraint))
        for round_ in range(4):
            for i, instance in enumerate(instances):
                learned = []
                config = SolverConfig(
                    strategy=STRATEGY_IDS[(round_ * len(instances) + i) % len(STRATEGY_IDS)],
                )
                variables = rng.sample(range(1, instance.nvars + 1), rng.randint(5, 15))
                # Staged: two root assignments, then one level per decision,
                # with no propagation in between.  Searched: propagate after
                # each decision and analyze the first conflict, which also
                # yields the learned probes.
                for staged in (True, False):
                    solver = Solver(instance, config)
                    engine = solver.engine
                    if staged:
                        for v in variables[:2]:
                            engine.assign(v if rng.random() < 0.5 else -v, None)
                    elif engine.propagate_all() is not None:
                        continue
                    for v in variables:
                        if value(engine, v) is not None:
                            continue
                        engine.assume(v if rng.random() < 0.75 else -v)
                        if staged:
                            continue
                        conflict = engine.propagate_all()
                        if conflict is not None:
                            # A root conflict comes back with level None.
                            found, _, level, _ = solver.analyze_conflict(conflict)
                            if level is None:
                                assert slack(found, assignment_at_level(engine, 0)) < 0
                            else:
                                assert level == oracle_assertion_level(found, engine)
                            break
                    for c in (*instance.constraints, *learned):
                        expected = oracle_assertion_level(c, engine)
                        assert assertion_level(solver.engine, c) == expected
                        probes += 1
                        asserting += expected is not None
        assert probes > 4000
        assert asserting > 100


class TestHeuristics:
    def test_luby_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]

    def test_initial_decision_is_lowest_variable_false(self):
        instance = ParsedInstance(declared_vars=3, constraints=[con("a b c >= 1")])
        solver = Solver(instance, SolverConfig())
        assert solver.decide_literal() == -1

    def test_bump_changes_argmax_and_scaling_is_invariant(self):
        instance = ParsedInstance(declared_vars=4, constraints=[con("a b c d >= 1")])
        solver = Solver(instance, SolverConfig())
        solver.bump_variables([3])
        assert solver.decide_literal() == -3
        before = solver.decide_literal()
        for v in range(1, solver.nvars + 1):
            solver._activity[v] *= 1e-30
        assert solver.decide_literal() == before

    def test_one_bump_loop_equals_single_bumps(self):
        rng = random.Random(4)
        n = 12
        rescaled = 0
        for _ in range(200):
            instance = ParsedInstance(declared_vars=n, constraints=[])
            batch, single = Solver(instance), Solver(instance)
            for v in rng.sample(range(1, n + 1), rng.randint(0, n - 1)):
                decision = v if rng.random() < 0.5 else -v
                batch.engine.assume(decision)
                single.engine.assume(decision)
            # Activities near 1e100 and an increment just below its bound
            # make the decay after the bump rescale.
            var_inc = rng.choice((1.0, 0.7, 9.6e99, 9.9e99))
            for solver in (batch, single):
                solver._var_inc = var_inc
            for v in rng.sample(range(1, n + 1), rng.randint(0, n)):
                a = rng.choice((rng.random(), rng.uniform(0, 9.9e99)))
                batch._activity[v] = single._activity[v] = a
            batch._rebuild_heap()
            single._rebuild_heap()
            variables = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            batch.bump_variables(variables)
            bump_one_at_a_time(single, variables)
            assert batch._activity == single._activity
            assert batch._heap == single._heap
            bumped = batch._activity[:]
            batch._decay_activities()
            single._decay_activities()
            scale = 1e-100 if batch._var_inc < var_inc else 1.0
            assert batch._activity == single._activity == [a * scale for a in bumped]
            assert batch._var_inc == single._var_inc
            assert batch._heap == single._heap
            if len(batch.engine.trail) < n:
                assert batch.decide_literal() == single.decide_literal() == linear_decide_literal(batch)
            rescaled += scale < 1
        assert rescaled > 20

    def test_set_bumps_and_rescales_match_single_bumps(self):
        # Bumps of lists, sets and a repeated variable, with decays,
        # rescales, backjumps and rebuilds, keep every activity finite.  A
        # set bumped near 1e100, then decayed, gives the same activities,
        # increment and decision as single bumps over its sorted list.
        rng = random.Random(17)
        n = 12
        compared = rescaled = 0
        for _ in range(20):
            solver = Solver(ParsedInstance(declared_vars=n, constraints=[]))
            engine = solver.engine
            for _ in range(300):
                op = rng.random()
                if op < 0.15:
                    solver.bump_variables(rng.sample(range(1, n + 1), rng.randint(1, n)))
                elif op < 0.3:
                    solver.bump_variables(set(rng.sample(range(1, n + 1), rng.randint(1, n))))
                elif op < 0.4:
                    solver.bump_variables([rng.randint(1, n)] * rng.randint(2, 4))
                elif op < 0.55:
                    solver._decay_activities()
                elif op < 0.65 and len(engine.trail) < n:
                    v = rng.choice([u for u in range(1, n + 1) if value(engine, u) is None])
                    engine.assume(v if rng.random() < 0.5 else -v)
                elif op < 0.75 and engine.current_level > 0:
                    solver._record_phases(engine.backjump_to(rng.randrange(engine.current_level)))
                elif op < 0.8:
                    solver._rebuild_heap()
                elif op < 0.9:
                    # Forces the 1e-100 rescale on the decay after this bump.
                    solver._var_inc = 9.9e99
                    solver.bump_variables([rng.randint(1, n)])
                    solver._decay_activities()
                else:
                    for v in rng.sample(range(1, n + 1), rng.randint(1, 3)):
                        solver._activity[v] = rng.uniform(9e99, 1e100)
                    solver._rebuild_heap()
                    var_inc = solver._var_inc = rng.choice((1.0, 1e98, 9.6e99, 9.9e99))
                    single = copy.deepcopy(solver)
                    variables = set(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    solver.bump_variables(variables)
                    bump_one_at_a_time(single, sorted(variables))
                    solver._decay_activities()
                    single._decay_activities()
                    assert solver._activity == single._activity
                    assert solver._var_inc == single._var_inc
                    if len(engine.trail) < n:
                        assert solver.decide_literal() == single.decide_literal()
                    compared += 1
                    rescaled += solver._var_inc < var_inc
                assert all(map(math.isfinite, solver._activity))
        assert compared > 400 and rescaled > 100

    def test_heap_decision_matches_linear_scan(self):
        rng = random.Random(21)
        n = 12
        for _ in range(20):
            instance = ParsedInstance(declared_vars=n, constraints=[])
            solver = Solver(instance, SolverConfig())
            engine = solver.engine
            for _ in range(400):
                op = rng.random()
                if op < 0.35:
                    solver.bump_variables([rng.randint(1, n)])
                elif op < 0.45:
                    solver._decay_activities()
                elif op < 0.7 and len(engine.trail) < n:
                    if rng.random() < 0.5:
                        engine.assume(solver.decide_literal())
                    else:
                        v = rng.choice([u for u in range(1, n + 1) if value(engine, u) is None])
                        engine.assume(v if rng.random() < 0.5 else -v)
                elif op < 0.9 and engine.current_level > 0:
                    solver._record_phases(engine.backjump_to(rng.randrange(engine.current_level)))
                elif op >= 0.9:
                    # Forces the 1e-100 rescale on the decay after this bump.
                    solver._var_inc = 9.9e99
                    solver.bump_variables([rng.randint(1, n)])
                    solver._decay_activities()
                if len(engine.trail) < n:
                    assert solver.decide_literal() == linear_decide_literal(solver)

    def test_phase_recording_does_not_depend_on_order(self):
        # backjump_to returns the popped literals in trail order; the phases
        # and the next decision must be the same for any order of them.
        rng = random.Random(40)
        n = 12
        for _ in range(30):
            solver = Solver(ParsedInstance(declared_vars=n, constraints=[]), SolverConfig())
            for v in range(1, n + 1):
                solver._activity[v] = float(rng.randint(0, 3))
            solver._rebuild_heap()
            for v in rng.sample(range(1, n + 1), rng.randint(2, n)):
                solver.engine.assume(v if rng.random() < 0.5 else -v)
            reordered = copy.deepcopy(solver)
            target = rng.randrange(solver.engine.current_level)
            popped = solver.engine.backjump_to(target)
            assert reordered.engine.backjump_to(target) == popped
            solver._record_phases(popped)
            reordered._record_phases(popped[::-1])
            assert solver._phase == reordered._phase
            # The two heaps may be laid out differently; every later decision agrees.
            while len(solver.engine.trail) < n:
                decision = solver.decide_literal()
                assert decision == reordered.decide_literal() == linear_decide_literal(solver)
                solver.engine.assume(decision)
                reordered.engine.assume(decision)

    def test_phase_saving_repeats_last_polarity(self):
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        solver = Solver(instance, SolverConfig())
        solver.engine.assume(1)
        solver._record_phases(solver.engine.backjump_to(0))
        assert solver.decide_literal() == 1

    def test_decide_requires_free_variable(self):
        instance = ParsedInstance(declared_vars=1, constraints=[con("a >= 1")])
        solver = Solver(instance, SolverConfig())
        solver.engine.assume(1)
        with pytest.raises(ValueError):
            solver.decide_literal()

    def test_reduce_db_keeps_reasons_and_halves_rest(self, monkeypatch):
        reductions = []
        reduce_db = Solver.reduce_db

        def counted_reduce_db(solver):
            reductions.append(solver)
            reduce_db(solver)

        monkeypatch.setattr(Solver, "reduce_db", counted_reduce_db)
        for seed in range(10):
            instance = random_instance(8, 12, 7, 900 + seed)
            with monkeypatch.context() as m:
                m.setattr(pbsolve.solver, "REDUCE_INTERVAL", 4)
                solver = Solver(instance, SolverConfig(strategy="rs-both"))
                result = solver.solve()
            assert result.status in (SAT, UNSAT)
            for cid in solver.engine.reasons:
                if cid is not None:
                    assert solver.engine.constraints[cid] is not None
        # The small random instances above barely search; these reach
        # reduce_db several times each.
        for i in range(6):
            instance = balanced_instance(30, 126, 8, f"test-{i}")
            unreduced = solve(instance, SolverConfig(strategy="rs-both"))
            before = len(reductions)
            with monkeypatch.context() as m:
                m.setattr(pbsolve.solver, "REDUCE_INTERVAL", 20)
                solver = Solver(instance, SolverConfig(strategy="rs-both"))
                result = solver.solve()
            assert len(reductions) > before
            assert result.status == unreduced.status
            engine = solver.engine
            for cid in engine.reasons:
                if cid is not None:
                    assert engine.constraints[cid] is not None
            for entries in engine.occs:
                assert all(engine.constraints[cid] is not None for cid, _ in entries)
            assert verify_slacks(engine)

    def test_activity_rescale_keeps_what_reduce_db_drops(self):
        # A decay that lifts the learned increment past 1e20 scales every
        # learned activity and the increment by 1e-20.  A twin solver in the
        # same state takes the same bump and decay unscaled; reduce_db drops
        # the same ids.
        instance = balanced_instance(30, 126, 4, "test")
        config = SolverConfig(strategy="rs-both", conflict_budget=60)
        solver, twin = Solver(instance, config), Solver(instance, config)
        assert solver.solve().status == twin.solve().status == UNKNOWN
        activity = solver._cla_activity
        assert activity == twin._cla_activity and len(activity) >= 20
        bumped = min(activity, key=activity.get)
        solver._cla_inc = twin._cla_inc = 9.995e19
        twin._cla_activity[bumped] += twin._cla_inc
        twin._cla_inc /= 0.999
        solver._bump_constraint(bumped)
        solver._decay_activities()
        assert twin._cla_inc > 1e20
        assert activity == {cid: a * 1e-20 for cid, a in twin._cla_activity.items()}
        assert solver._cla_inc == twin._cla_inc * 1e-20
        solver.reduce_db()
        twin.reduce_db()
        assert activity.keys() == twin._cla_activity.keys() and bumped in activity
        dropped = [cid for cid, c in enumerate(solver.engine.constraints) if c is None]
        assert dropped == [cid for cid, c in enumerate(twin.engine.constraints) if c is None]
        assert len(dropped) >= 10

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_search_goes_on_past_both_rescales(self, strategy):
        # Increments just below their bounds make the first conflict's decay
        # rescale the variable and the learned activities; the search then
        # runs on under the scaled ones to a checked answer.
        instances = [php_instance(7, 6)] + [balanced_instance(30, 120, 5, f"test-{i}") for i in range(2)]
        statuses = set()
        for instance in instances:
            solver = Solver(instance, SolverConfig(strategy=strategy, emit_trace=True))
            solver._var_inc, solver._cla_inc = 9.9e99, 9.995e19
            result = solver.solve()
            assert result.stats.conflicts > 1
            assert solver._var_inc < 1e99 and solver._cla_inc < 1e19
            assert all(map(math.isfinite, solver._activity))
            assert all(map(math.isfinite, solver._cla_activity.values()))
            if result.status == UNSAT:
                check = verify_trace(instance, result.trace)
                assert check, check.error
            else:
                assert result.status == SAT
                assert all(c.satisfied_by(result.model) for c in instance.constraints)
            statuses.add(result.status)
        assert statuses == {SAT, UNSAT}

    def test_restart_resets_to_root(self, monkeypatch):
        monkeypatch.setattr(pbsolve.solver, "RESTART_BASE", 10)
        instance = php_instance(8, 7)
        result = solve(
            instance,
            SolverConfig(strategy="weaken-ineffective-both", conflict_budget=400),
        )
        assert result.stats.restarts > 0
        # The same solve with a base no 400-conflict run reaches restarts never.
        monkeypatch.setattr(pbsolve.solver, "RESTART_BASE", 10**9)
        result = solve(
            instance,
            SolverConfig(strategy="weaken-ineffective-both", conflict_budget=400),
        )
        assert result.stats.restarts == 0

    def test_restart_points_are_pinned(self, monkeypatch):
        # The i-th restart comes at the first decision once the conflicts
        # since the one before reach RESTART_BASE * luby(i).  A burst of
        # conflicts with no decision between them delays it past that
        # limit: 56 comes after 40 with a limit of 10, 334 after 250 with 80.
        monkeypatch.setattr(pbsolve.solver, "RESTART_BASE", 10)
        decide = Solver._decide
        points = []

        def recorded(solver):
            if solver.stats.restarts > len(points):
                points.append(solver.stats.conflicts)
            decide(solver)

        monkeypatch.setattr(Solver, "_decide", recorded)
        result = solve(
            php_instance(8, 7),
            SolverConfig(strategy="weaken-ineffective-both", conflict_budget=400),
        )
        assert points == [
            10, 20, 40, 56, 66, 86, 126, 136, 147, 167, 177, 188, 210, 250, 334, 344, 354, 374, 384, 395,
        ]
        assert result.stats.restarts == len(points) == 20
        for i, (before, at) in enumerate(zip([0, *points], points), 1):
            assert at - before >= 10 * luby(i)


#: (instance, strategy) -> (status, conflicts, decisions, propagations,
#: learned, sha256 of the written trace text) under ``conflict_budget=300``.
#: The largest coefficient reached is 3,718 bits (multiply-weaken on balanced-1).
TRACE_DIGESTS = {
    ("php-6-5", "gen-res"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "rs-both"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "rs-conflict"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "rs-reason"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "partial-rs-both"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "partial-rs-conflict"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "partial-rs-reason"): ("UNSAT", 5, 10, 34, 4, "fce6375d7f3e8fdaa9dd762bb5a5227cebddeeeab498b2c5415adddad07cb521"),
    ("php-6-5", "weaken-ineffective-both"): ("UNSAT", 110, 141, 1160, 109, "d19bc2439e76900178800066c585c48c425dbc683d80d3db97486857c9b58fd5"),
    ("php-6-5", "weaken-ineffective-conflict"): ("UNSAT", 86, 108, 1060, 85, "bac40b55b0b6e61bffbaa683a2a26974b04e57241b0ff5c6caeffb3bcea49c14"),
    ("php-6-5", "weaken-ineffective-reason"): ("UNSAT", 190, 233, 2206, 189, "8a84bbadcd05a794649b93ce0b49207f68ea6c6f8a3e058d48997538203dbf30"),
    ("php-6-5", "multiply-weaken"): ("UNSAT", 193, 243, 2229, 192, "96c1f078f27d2cd263f06864295343130daef81919a59e6657686fcc1895cbf5"),
    ("balanced-0", "gen-res"): ("UNSAT", 98, 103, 1194, 97, "2813cf5762319762c6ce0a4cc0a99fd5c807bea9b7cff20326d86740384768cd"),
    ("balanced-0", "rs-both"): ("UNSAT", 106, 108, 1383, 105, "27559af6d3b07f29b3bdf88de6371ea464882197033f85148a59272a31fdb0cd"),
    ("balanced-0", "rs-conflict"): ("UNSAT", 93, 98, 1186, 92, "f6ce640c87c798e23bf034be5f790c9f3ee8c132cf94e5e8d5094e27d11a8230"),
    ("balanced-0", "rs-reason"): ("UNSAT", 88, 94, 1015, 87, "af0344da00bc56ace827656db356780f717317936735c9d352434db80c088da2"),
    ("balanced-0", "partial-rs-both"): ("UNSAT", 89, 92, 1188, 88, "291194794fc0800fbbd382da20c9379129fa41eff1b37a09feb1ccfc00d12c62"),
    ("balanced-0", "partial-rs-conflict"): ("UNSAT", 93, 98, 1207, 92, "5f673adb7e741d2c68f1b08b0e4409d43a6408265ffb89f46dd063ccaeec2232"),
    ("balanced-0", "partial-rs-reason"): ("UNSAT", 85, 89, 1054, 84, "d908294df589d697f48643c11fcb90109e4b387f99c8df0bb8beef73e2c2fa3e"),
    ("balanced-0", "weaken-ineffective-both"): ("UNSAT", 76, 83, 950, 75, "201147bae325e7e132e71e0e32747c65edbb929a9886c1bb7d5dc58661754ccd"),
    ("balanced-0", "weaken-ineffective-conflict"): ("UNSAT", 106, 121, 1246, 105, "d997d5a8e2872903ab4033a2f7188bf1877c68b6c601f60b56e2138a9a01a73e"),
    ("balanced-0", "weaken-ineffective-reason"): ("UNSAT", 94, 102, 1124, 93, "69a255bff1761ababecb95c3265ef5ac0f76c53cbb2c047d064e225f25f13f1d"),
    ("balanced-0", "multiply-weaken"): ("UNSAT", 105, 114, 1292, 104, "d4c3bd47bc615d992a931667dd4626255ad6290332234c14f3b46b88a59f5e23"),
    ("balanced-1", "gen-res"): ("UNSAT", 144, 162, 1688, 143, "f1b895b57cdbad6d4bc4bda02a70fe6f195f3c197d895070be80da740451f13a"),
    ("balanced-1", "rs-both"): ("UNSAT", 156, 173, 1820, 155, "08f9a43dc42e0c48e13e996c4266d3a1f0e25758ae103a4e6627289c610c03c0"),
    ("balanced-1", "rs-conflict"): ("UNSAT", 136, 146, 1570, 135, "c68bde311a01bdfc7944283b82df052477125dd2d5b66a352a151e6075d00f0a"),
    ("balanced-1", "rs-reason"): ("UNSAT", 150, 164, 1707, 149, "a7a2e750690ad022c004ae9444021d540c39bd1997c25080831abb5f5db06639"),
    ("balanced-1", "partial-rs-both"): ("UNSAT", 138, 155, 1624, 137, "007fad9332a68321873abe07010c9040a3573d335da5239785ff968df362f606"),
    ("balanced-1", "partial-rs-conflict"): ("UNSAT", 155, 168, 1738, 154, "5bae8ce8d1c870144593bc5d4a0c02b62cae137685e83669a98dc4c9d915e273"),
    ("balanced-1", "partial-rs-reason"): ("UNSAT", 162, 185, 1779, 161, "91ebd911a94a08efedf0a5c843ff055bf47a1d3ed1dc8203bde803aa51740e85"),
    ("balanced-1", "weaken-ineffective-both"): ("UNSAT", 135, 145, 1564, 134, "fc03479564c32aa2ff9730ccc8a3347f99581eb657f749fb3a5cd3c0d5dcee55"),
    ("balanced-1", "weaken-ineffective-conflict"): ("UNSAT", 113, 130, 1235, 112, "24cfeb4929c1505efec44133ec32b7c842fd43c073d65b039059394854757bc1"),
    ("balanced-1", "weaken-ineffective-reason"): ("UNSAT", 137, 151, 1630, 136, "9d422c958c5cc5f76b422773559eb76c5a99bb211b1d198301a6cc8cb1dabd30"),
    ("balanced-1", "multiply-weaken"): ("UNSAT", 152, 165, 1665, 151, "d57de32e52e9de92f39db9ce857e9a6da9b888df75d1b8c7c3071bf8b9fd2ab5"),
    ("balanced-2", "gen-res"): ("SAT", 34, 57, 365, 34, "716ea7811d1297d0a00a7cf935217bf266c956a41826e979f624e198059f81ef"),
    ("balanced-2", "rs-both"): ("SAT", 37, 51, 416, 37, "236616fdb45911e05e446c7634b5aa60f7555ef3ec3609b99e74521e081cacfb"),
    ("balanced-2", "rs-conflict"): ("SAT", 36, 49, 408, 36, "2f33783f5243fec4a217482c65093ab573df0c88288fd61814f99e8160051662"),
    ("balanced-2", "rs-reason"): ("SAT", 48, 64, 546, 48, "a4fdc0ca1d9fd7aa128dd75e113a64f55012595f686431f5fab21c8ff2732584"),
    ("balanced-2", "partial-rs-both"): ("SAT", 38, 50, 430, 38, "36f2a133bcf0ec6d84268184bb9136323a5224265fefe3c16ce47c4c33dc9631"),
    ("balanced-2", "partial-rs-conflict"): ("SAT", 38, 55, 414, 38, "8e3070b3f4912a744f5c97d56d0108dd8351e9bb54229b991cadf657bfa615e7"),
    ("balanced-2", "partial-rs-reason"): ("SAT", 29, 40, 346, 29, "bdd27658fb0f52a668647821a9bfdd4aea8a672cefe47eeecec8fe82ce5d205f"),
    ("balanced-2", "weaken-ineffective-both"): ("SAT", 32, 49, 336, 32, "c3f49d560fd9a39eccd5b489f04db6137c39466e646396fdceb9647ce2f6122b"),
    ("balanced-2", "weaken-ineffective-conflict"): ("SAT", 41, 56, 454, 41, "bbbe65b2b7cabcd84e90d98e0ea96548208985a0b850cb74e4ab827a454ad341"),
    ("balanced-2", "weaken-ineffective-reason"): ("SAT", 29, 47, 345, 29, "e279fa16ca97daaf20ee3942a6fce323eb2b5c7c7ea65a90b616fab651dee21c"),
    ("balanced-2", "multiply-weaken"): ("SAT", 48, 68, 541, 48, "b85ab65d873643bf8bafb7d2b4d69f45f6118ee034d402323b524eebe2edbba8"),
}


def digest_instances():
    """php-6-5 and three balanced rows sets, each round-tripped through OPB text."""
    instances = [("php-6-5", php_instance(6, 5))]
    for s in range(3):
        instances.append((f"balanced-{s}", balanced_instance(30, 120, s, "test")))
    for name, instance in instances:
        text = io.StringIO()
        write_opb(instance, text)
        yield name, parse_opb(text.getvalue())


@pytest.fixture(scope="class")
def pinned_runs():
    """(instance name, strategy) -> (instance, result) for every TRACE_DIGESTS run."""
    runs = {}
    for name, instance in digest_instances():
        for strategy in STRATEGY_IDS:
            config = SolverConfig(strategy=strategy, conflict_budget=300, emit_trace=True)
            runs[name, strategy] = instance, solve(instance, config)
    return runs


class TestTraceTextContract:
    def test_counters_and_trace_text_are_pinned(self, pinned_runs):
        got = {}
        for key, (_, result) in pinned_runs.items():
            text = io.StringIO()
            result.trace.write(text)
            s = result.stats
            got[key] = (
                result.status, s.conflicts, s.decisions, s.propagations, s.learned,
                hashlib.sha256(text.getvalue().encode()).hexdigest(),
            )
        assert got.keys() == TRACE_DIGESTS.keys()
        assert [k for k in got if got[k] != TRACE_DIGESTS[k]] == []

    def test_weaken_runs_are_maximal_and_learned_ids_name_no_run(self, pinned_runs):
        # An accumulator's weakening of the value its own last weaken step
        # produced extends that step, so no weaken step starts from the
        # output of the weaken step just before it.  A learned id names a
        # cancellation or a saturation, never a run a later weakening
        # could extend.
        longer = 0
        for key, (_, result) in pinned_runs.items():
            trace = result.trace
            rule_of = [None] * (trace.inputs + 1) + [rule for rule, _ in trace.steps]  # by id
            for step_id, (rule, args) in enumerate(trace.steps, start=trace.inputs + 1):
                if rule == "weaken":
                    assert (rule_of[step_id - 1], args[0]) != ("weaken", step_id - 1), (key, step_id)
                    longer += len(args) > 2
            assert {rule_of[i] for i, _ in trace.learned} <= {"cancel", "saturate"}, key
        assert longer > 0

    def test_checker_replay_matches_the_pure_rules(self, pinned_runs):
        # The checker's arithmetic, core's rule functions, against the pure
        # rules of the tests' reference (helpers.replay_steps, which
        # expands a weaken run into one pure weaken per literal) on
        # every pinned run: once with the learned records as written, and
        # once with every id named by a learned record, so that each step's
        # output is compared with the reference.
        for key, (instance, result) in pinned_runs.items():
            trace = copy.copy(result.trace)
            reference = replay_steps(instance, trace)
            assert [reference[i] for i, _ in trace.learned] == [c for _, c in trace.learned]
            check = verify_trace(instance, trace)
            assert check, (key, check.error)
            trace.learned = list(reference.items())
            check = verify_trace(instance, trace)
            assert check, (key, check.error)
            assert check.steps_checked == len(trace.steps) == len(reference) - len(instance.constraints)
