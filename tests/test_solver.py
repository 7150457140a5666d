"""Search-loop tests: end-to-end solving, analysis walk, heuristics, budgets."""

import itertools
import random
import time

import pytest

from pbsolve.analysis import STRATEGY_IDS
from pbsolve.core import Constraint, propagation_candidates, slack
from pbsolve.generators import php_instance, random_instance
from pbsolve.opb import ParsedInstance, SAT, UNKNOWN, UNSAT
from pbsolve.solver import (
    Solver,
    SolverConfig,
    _RootConflict,
    luby,
    solve,
)
from helpers import (
    asg,
    backjump_level,
    con,
    implies_semantically,
    is_assertive,
    linear_decide_literal,
    lit,
    observe_resolve_steps,
    var,
)


def brute_force_status(instance):
    n = instance.nvars
    for values in itertools.product((False, True), repeat=n):
        total = dict(zip(range(1, n + 1), values))
        if all(c.satisfied_by(total) for c in instance.constraints):
            return SAT
    return UNSAT


def balanced_instance(nvars, nrows, rng):
    """Rows of six variables, weights 1..10, random polarity, degree a quarter of the sum."""
    rows = []
    for _ in range(nrows):
        weights = [rng.randint(1, 10) for _ in range(6)]
        terms = [
            (v if rng.random() < 0.5 else -v, w)
            for v, w in zip(rng.sample(range(1, nvars + 1), 6), weights)
        ]
        rows.append(Constraint(terms, -(-sum(weights) // 4)))
    return ParsedInstance(declared_vars=nvars, constraints=rows)


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
        instance = ParsedInstance(declared_vars=1, constraints=[], contradiction=True)
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

    def test_time_budget_yields_unknown(self):
        instance = php_instance(9, 8)
        result = solve(
            instance, SolverConfig(strategy="weaken-ineffective-both", time_budget=0.2)
        )
        assert result.status == UNKNOWN
        assert result.stats.seconds < 5.0

    def test_time_budget_overshoot_is_bounded(self):
        started = time.monotonic()
        result = solve(
            php_instance(8, 7), SolverConfig(strategy="weaken-ineffective-reason", time_budget=1)
        )
        assert result.status == UNKNOWN
        assert time.monotonic() - started < 5.0

    def test_learned_constraints_are_implied(self):
        for seed in (3, 14, 41):
            instance = random_instance(6, 9, 6, seed)
            result = solve(instance, SolverConfig(strategy="gen-res", emit_trace=True))
            inputs = list(instance.constraints)
            for learned_id in result.trace.learned:
                learned = result.trace.by_id[learned_id]
                assert implies_semantically(inputs, learned)

    def test_determinism_identical_runs(self):
        instance = random_instance(8, 12, 9, 77)
        first = solve(instance, SolverConfig(strategy="rs-both", emit_trace=True))
        second = solve(instance, SolverConfig(strategy="rs-both", emit_trace=True))
        assert first.status == second.status
        for field in ("conflicts", "decisions", "propagations", "restarts", "learned"):
            assert getattr(first.stats, field) == getattr(second.stats, field)
        assert [s.output for s in first.trace.steps] == [s.output for s in second.trace.steps]


class TestAnalyzeConflict:
    def test_first_step_already_asserts(self):
        solver = scenario_solver("gen-res")
        conflict = solver.engine.propagate_all()
        assert conflict == 1
        learned, _, level, reused = solver.analyze_conflict(conflict)
        assert learned == con("25a 25c 16e 5d 4f >= 30")
        assert level == 3
        assert reused is None

    def test_rs_both_learns_clause(self):
        solver = scenario_solver("rs-both")
        conflict = solver.engine.propagate_all()
        learned, _, level, _ = solver.analyze_conflict(conflict)
        assert learned == con("c d e >= 1")
        assert level == 3

    def test_zero_cancellations_when_conflict_asserts_lower(self):
        instance = ParsedInstance(declared_vars=3, constraints=[con("a b >= 1")])
        solver = Solver(instance, SolverConfig())
        # Stage the decisions without propagating in between: the clause is
        # falsified at level 3 but already propagates b at level 2.
        solver.engine.assume(-var("c"))
        solver.engine.assume(-var("a"))
        solver.engine.assume(-var("b"))
        learned, _, level, reused = solver.analyze_conflict(0)
        assert reused == 0 and learned == con("a b >= 1")
        assert level == 2

    def test_learned_constraint_propagates_after_backjump(self):
        for seed in (2, 9, 23, 31):
            instance = random_instance(6, 8, 5, seed)
            solver = Solver(instance, SolverConfig(strategy="partial-rs-both"))
            engine = solver.engine
            conflict = engine.propagate_all()
            guard = 0
            while conflict is not None and engine.current_level > 0 and guard < 50:
                learned, tid, level, reused = solver.analyze_conflict(conflict)
                solver._backjump_and_learn(learned, tid, level, reused)
                assert engine.current_level == level
                conflict = engine.propagate_all()
                if conflict is None:
                    assert propagation_candidates(learned, engine.assignment) == ()
                guard += 1


class TestAssertiveness:
    def test_assertion_levels_in_scenario(self):
        solver = scenario_solver()
        solver.engine.propagate_all()
        learned = con("25a 25c 16e 5d 4f >= 30")
        assert not is_assertive(learned, solver.engine, 2)
        assert is_assertive(learned, solver.engine, 3)
        assert backjump_level(learned, solver.engine) == 3
        assert solver._assertion_level(learned) == 3

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
                if v not in engine.assignment:
                    engine.assume(v if rng.random() < 0.5 else -v)
                    if engine.propagate_all() is not None:
                        break
            probe = instance.constraints[rng.randrange(len(instance.constraints))]
            expected = None
            for level in range(engine.current_level):
                if is_assertive(probe, engine, level):
                    expected = level
                    break
            assert solver._assertion_level(probe) == expected

    def test_matches_oracle_on_wide_constraints_and_many_levels(self, monkeypatch):
        rng = random.Random(13)
        instances = [php_instance(9, 8)] + [balanced_instance(30, 120, rng) for _ in range(5)]
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
                        if v in engine.assignment:
                            continue
                        engine.assume(v if rng.random() < 0.75 else -v)
                        if staged:
                            continue
                        conflict = engine.propagate_all()
                        if conflict is not None:
                            try:
                                solver.analyze_conflict(conflict)
                            except _RootConflict:
                                pass
                            break
                    for c in (*instance.constraints, *learned):
                        expected = oracle_assertion_level(c, engine)
                        assert solver._assertion_level(c) == expected
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
        solver.bump_variable(3)
        assert solver.decide_literal() == -3
        before = solver.decide_literal()
        for v in solver._activity:
            solver._activity[v] *= 1e-30
        assert solver.decide_literal() == before

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
                    solver.bump_variable(rng.randint(1, n))
                elif op < 0.45:
                    solver._decay_activities()
                elif op < 0.7 and len(engine.assignment) < n:
                    if rng.random() < 0.5:
                        engine.assume(solver.decide_literal())
                    else:
                        v = rng.choice([u for u in range(1, n + 1) if u not in engine.assignment])
                        engine.assume(v if rng.random() < 0.5 else -v)
                elif op < 0.9 and engine.current_level > 0:
                    solver._record_phases(engine.backjump_to(rng.randrange(engine.current_level)))
                elif op >= 0.9:
                    # Forces the 1e-100 rescale on this bump.
                    solver._var_inc = 2e100
                    solver.bump_variable(rng.randint(1, n))
                if len(engine.assignment) < n:
                    assert solver.decide_literal() == linear_decide_literal(solver)

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
        rng = random.Random(8)
        reductions = []
        reduce_db = Solver.reduce_db

        def counted_reduce_db(solver):
            reductions.append(solver)
            reduce_db(solver)

        monkeypatch.setattr(Solver, "reduce_db", counted_reduce_db)
        for seed in range(10):
            instance = random_instance(8, 12, 7, 900 + seed)
            solver = Solver(instance, SolverConfig(strategy="rs-both", reduce_interval=4))
            result = solver.solve()
            assert result.status in (SAT, UNSAT)
            for entry in solver.engine.trail:
                if entry.reason is not None:
                    assert solver.engine.constraints[entry.reason] is not None
        # The small random instances above barely search; these reach
        # reduce_db several times each.
        for _ in range(6):
            instance = balanced_instance(30, 126, rng)
            unreduced = solve(instance, SolverConfig(strategy="rs-both"))
            before = len(reductions)
            solver = Solver(instance, SolverConfig(strategy="rs-both", reduce_interval=20))
            result = solver.solve()
            assert len(reductions) > before
            assert result.status == unreduced.status
            engine = solver.engine
            for entry in engine.trail:
                if entry.reason is not None:
                    assert engine.constraints[entry.reason] is not None
            for entries in engine.occs.values():
                assert all(engine.constraints[cid] is not None for cid, _ in entries)
            assert engine.verify_slacks()

    def test_restart_resets_to_root(self):
        instance = php_instance(8, 7)
        result = solve(
            instance,
            SolverConfig(strategy="weaken-ineffective-both", restart_base=10, conflict_budget=400),
        )
        assert result.stats.restarts > 0
