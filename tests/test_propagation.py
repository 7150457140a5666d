"""Trail, incremental slack and propagation-fixpoint tests."""

import random

import pytest

from pbsolve.core import Constraint, slack
from pbsolve.generators import balanced_instance, php_instance
from pbsolve.propagation import PropagationEngine
from helpers import (
    con,
    lit,
    propagation_candidates,
    random_instance,
    reason_of,
    reference_propagate_all,
    value,
    var,
    verify_slacks,
)


def engine_with(*constraints, nvars=0):
    """An engine over ``constraints``, sized to ``nvars`` or to the largest variable they name."""
    engine = PropagationEngine(max([nvars, *(abs(c.terms[-1][0]) for c in constraints if c.terms)]))
    for c in constraints:
        engine.add_constraint(c)
    return engine


class TestAssign:
    def test_assign_updates_slacks_of_negation_occurrences(self):
        c = con("5a 4b c d >= 6")
        engine = engine_with(c)
        engine.assume(-2)  # falsifies b
        assert engine.slacks[0] == slack(c, set(engine.trail)) == 1

    def test_assign_unrelated_literal_changes_nothing(self):
        engine = engine_with(con("a b >= 1"), nvars=var("z"))
        before = list(engine.slacks)
        engine.assume(lit("z"))
        assert engine.slacks == before

    def test_double_assignment_rejected(self):
        engine = engine_with(con("a b >= 1"))
        engine.assume(1)
        with pytest.raises(ValueError):
            engine.assign(1, None)
        with pytest.raises(ValueError):
            engine.assign(-1, None)

    def test_rejected_decision_opens_no_level(self):
        engine = PropagationEngine(3)
        engine.assume(1)
        for rejected in (-1, 5):  # already assigned, outside 1..3
            with pytest.raises(ValueError):
                engine.assume(rejected)
        assert engine.current_level == 1 and engine.trail == [1]
        engine.assume(2)
        assert engine.levels == [1, 2]
        assert engine.backjump_to(1) == [2] and engine.trail == [1]


class TestRangeGuard:
    """The literal-indexed list has one slot per literal of +-1..+-n: a variable
    outside 1..n would land in another literal's slot, so it is rejected."""

    def test_assign_rejects_variable_outside_range(self):
        engine = engine_with(con("a b c >= 1"))
        assert engine.nvars == 3 and len(engine.index) == 7
        # Unguarded, index[-4] is index[3]: assigning ~x4 would make x3 true.
        for outside in (-4, 4, 0, 7, -7, -8):
            with pytest.raises(ValueError, match="outside 1..3"):
                engine.assign(outside, None)
        assert engine.trail == [] and engine.index == [None] * 7 and engine.slacks == [2]
        engine.assign(-3, None)
        assert value(engine, -3) is True and engine.index[-3] == 0

    def test_add_constraint_rejects_variable_outside_range(self):
        engine = engine_with(con("a b c >= 1"))
        engine.assign(-3, None)
        with pytest.raises(ValueError, match="x4 is outside 1..3"):
            engine.add_constraint(con("a 2~d >= 1"))
        assert len(engine.constraints) == len(engine.slacks) == len(engine.max_weights) == 1
        assert len(engine.occs) == 7
        assert all(cid == 0 for entries in engine.occs for cid, _ in entries)
        # In range, the same row prices its own slack off the list: c is false.
        cid = engine.add_constraint(con("a 2c >= 1"))
        assert engine.slacks[cid] == 0


class TestPropagation:
    def test_weighted_propagation_chain_reaches_conflict(self):
        reason = con("6~b 6c 4e f g h >= 7")
        other = con("5a 4b c d >= 6")
        engine = engine_with(reason, other)
        # Build the whole state first: propagation then runs over it at once.
        for decision in (var("a"), -var("c"), -var("d"), -var("e")):
            engine.assume(decision)
        assert engine.slacks[0] == 2
        result = engine.propagate_all()
        assert value(engine, -var("b")) is True
        assert reason_of(engine, var("b")) == 0
        assert result == 1  # the propagation of ~b falsifies the other constraint
        assert engine.slacks[1] == -1

    def test_empty_database_propagates_nothing(self):
        engine = engine_with()
        assert engine.propagate_all() is None

    def test_root_conflict_in_tiny_pigeonhole(self):
        # Two pigeons, one hole: units force both, the hole constraint fails.
        inst = php_instance(2, 1)
        engine = engine_with(*inst.constraints)
        conflict = engine.propagate_all()
        assert conflict is not None
        assert engine.current_level == 0

    def test_fixpoint_leaves_no_candidates(self):
        rng = random.Random(5)
        for trial in range(30):
            inst = random_instance(6, 6, 5, trial)
            engine = engine_with(*inst.constraints, nvars=inst.nvars)
            conflict = engine.propagate_all()
            if conflict is not None:
                continue
            for v in rng.sample(range(1, 7), 3):
                if value(engine, v) is not None:
                    continue
                engine.assume(v if rng.random() < 0.5 else -v)
                conflict = engine.propagate_all()
                if conflict is not None:
                    break
            if conflict is None:
                for cid, c in enumerate(engine.constraints):
                    assert all(
                        value(engine, l) is True
                        for l in propagation_candidates(c, set(engine.trail))
                    )


class TestBackjump:
    def test_backjump_restores_slacks(self):
        inst = random_instance(8, 10, 6, 17)
        engine = engine_with(*inst.constraints, nvars=inst.nvars)
        engine.propagate_all()
        rng = random.Random(3)
        for v in (1, 2, 3, 4):
            if value(engine, v) is not None:
                continue
            engine.assume(v if rng.random() < 0.5 else -v)
            engine.propagate_all()
        assert engine.current_level > 0
        engine.backjump_to(0)
        assert verify_slacks(engine)
        assert set(engine.levels) <= {0}

    def test_backjump_requires_lower_level(self):
        engine = engine_with(con("a b >= 1"))
        with pytest.raises(ValueError):
            engine.backjump_to(0)
        engine.assume(1)
        with pytest.raises(ValueError):
            engine.backjump_to(1)

    def test_negative_level_is_rejected(self):
        engine = engine_with(con("a b c >= 1"))
        engine.assume(1)
        engine.assume(2)
        with pytest.raises(ValueError, match="negative"):
            engine.backjump_to(-1)
        assert engine.trail == [1, 2] and engine.current_level == 2

    def test_slack_coherence_under_random_scripts(self):
        rng = random.Random(11)
        backjumps = 0
        for trial in range(25):
            inst = random_instance(7, 8, 5, 100 + trial)
            engine = engine_with(*inst.constraints, nvars=inst.nvars)
            # A root assignment made directly, as the staged assertion tests do.
            root = rng.choice((1, -1)) * rng.randint(1, 7)
            engine.assign(root, None)
            engine.propagate_all()
            for _ in range(12):
                if engine.current_level and rng.random() < 0.3:
                    target = rng.randrange(engine.current_level)
                    before = list(engine.trail)
                    start = engine.levels.index(target + 1)
                    assert engine.backjump_to(target) == before[start:]  # in trail order
                    assert engine.trail == before[:start]
                    backjumps += 1
                else:
                    free = [v for v in range(1, 8) if value(engine, v) is None]
                    if not free:
                        break
                    v = rng.choice(free)
                    engine.assume(v if rng.random() < 0.5 else -v)
                    engine.propagate_all()
                assert verify_slacks(engine)
                # One record of the assignment: each true literal -> its trail
                # index, every other literal of +-1..+-n -> None.
                at = {lit: i for i, lit in enumerate(engine.trail)}
                n = engine.nvars
                assert n == 7 and len(engine.index) == 2 * n + 1
                for l in [*range(1, n + 1), *range(-n, 0)]:
                    assert engine.index[l] == at.get(l)
                # The trail is three parallel lists whose levels never decrease,
                # and each open level starts at its decision, its only one.
                assert len(engine.trail) == len(engine.levels) == len(engine.reasons)
                assert engine.levels == sorted(engine.levels)
                assert engine.trail[0] == root and engine.levels[0] == 0
                assert engine.current_level == engine.levels[-1]
                decisions = sum(r is None and l > 0 for l, r in zip(engine.levels, engine.reasons))
                assert decisions == engine.current_level
                for level in range(1, engine.current_level + 1):
                    start = engine.levels.index(level)
                    assert engine.reasons[start] is None
                    assert engine.levels[start - 1] == level - 1
        assert backjumps > 30

    def test_learned_constraint_propagates_after_backjump(self):
        engine = engine_with(con("a b >= 1"), nvars=var("c"))
        engine.assume(-1)
        engine.propagate_all()
        engine.assume(-3)
        engine.propagate_all()
        engine.backjump_to(1)
        cid = engine.add_constraint(con("~b c >= 1"))
        assert engine.propagate_all() is None
        assert value(engine, var("c")) is True
        assert reason_of(engine, var("c")) == cid

    def test_reason_validity_replay(self):
        inst = php_instance(3, 2)
        engine = engine_with(*inst.constraints)
        engine.propagate_all()
        engine.assume(1)
        engine.propagate_all()
        assert any(cid is not None for cid in engine.reasons)
        for pos, (propagated, cid) in enumerate(zip(engine.trail, engine.reasons)):
            if cid is None:
                continue
            before = set(engine.trail[:pos])
            assert propagated in propagation_candidates(engine.constraints[cid], before)


class TestResumeAfterConflict:
    """A conflict returns before either counter moves past its entry: until a
    backjump repairs it the same conflict comes back, and after one the
    entry's work is done."""

    def test_attached_constraint_is_scanned_after_backjump(self):
        engine = engine_with(con("a c >= 1"))
        assert engine.propagate_all() is None
        engine.assume(-var("a"))
        cid = engine.add_constraint(con("a b >= 2"))  # already conflicting
        for _ in range(2):
            assert engine.propagate_all() == cid
            assert engine.trail == [-var("a")]
        engine.backjump_to(0)
        assert engine.propagate_all() is None
        assert engine.trail == [var("a"), var("b")]
        assert engine.reasons == [cid, cid]

    def test_trail_entry_is_visited_again_after_backjump(self):
        engine = engine_with(con("~a ~b >= 1"), con("~a c >= 1"))
        assert engine.propagate_all() is None
        engine.assume(var("a"))
        engine.assume(var("b"))
        for _ in range(2):
            # The first constraint conflicts before the second is visited.
            assert engine.propagate_all() == 0
            assert engine.trail == [var("a"), var("b")]
        engine.backjump_to(1)
        assert engine.propagate_all() is None
        assert engine.trail == [var("a"), -var("b"), var("c")]
        assert engine.reasons == [None, 0, 1]


class TestOccurrenceLists:
    def test_one_list_per_literal_slot_from_construction(self):
        engine = PropagationEngine(3)
        assert engine.occs == [[]] * 7 and len({id(entries) for entries in engine.occs}) == 7
        engine.add_constraint(con("a ~b 2c >= 1"))
        engine.add_constraint(con("~a 3~c >= 2"))
        expected = {1: [(0, 1)], -2: [(0, 1)], 3: [(0, 2)], -1: [(1, 1)], -3: [(1, 3)]}
        for lit in (1, -1, 2, -2, 3, -3):
            assert engine.occs[lit] == expected.get(lit, [])
        assert engine.occs[0] == []


class TestSharedEntries:
    """Each run of equal consecutive weights appends one ``(cid, weight)`` object to all its lists."""

    def test_equal_weights_share_one_entry(self):
        engine = engine_with(con("a b c d >= 2"))
        entries = [engine.occs[lit(x)][0] for x in "abcd"]
        assert entries == [(0, 1)] * 4
        assert all(e is entries[0] for e in entries)

    def test_each_run_of_weights_has_its_own_entry(self):
        engine = engine_with(con("a b >= 1"), con("2a 2b 3c 2d >= 4"))
        entries = [engine.occs[lit(x)][-1] for x in "abcd"]
        assert entries == [(1, 2), (1, 2), (1, 3), (1, 2)]
        assert entries[0] is entries[1]
        assert len({id(e) for e in entries}) == 3
        assert engine.occs[lit("a")][0] is engine.occs[lit("b")][0] == (0, 1)


class TestRemoveConstraints:
    def test_occurrence_lists_drop_removed_and_keep_order(self):
        rows = [con("a b c >= 1"), con("~a b >= 1"), con("a 2c d >= 2"), con("b ~c >= 1")]
        engine = engine_with(*rows)
        before = [list(entries) for entries in engine.occs]
        engine.remove_constraints([0, 2])
        assert engine.constraints[0] is None and engine.constraints[2] is None
        assert len(engine.occs) == len(before)
        for lit, entries in enumerate(before):
            assert engine.occs[lit] == [e for e in entries if e[0] not in (0, 2)]

    def test_shared_entries_survive_removal_in_order(self):
        # Rows 0, 1 and 3 have one weight each, so each shares one entry
        # across its literals; row 2 has two runs.
        rows = [con("a b c >= 1"), con("a b d >= 2"), con("2a 2c d >= 2"), con("b c d >= 1")]
        engine = engine_with(*rows)
        before = [list(entries) for entries in engine.occs]
        engine.remove_constraints([1])
        assert len(engine.occs) == len(before)
        for l, entries in enumerate(before):
            kept = [e for e in entries if e[0] != 1]
            assert engine.occs[l] == kept
            assert all(a is b for a, b in zip(engine.occs[l], kept))
        a, b, c, d = (engine.occs[lit(x)] for x in "abcd")
        assert a[0] is b[0] is c[0] == (0, 1)
        assert a[1] is c[1] == (2, 2)
        assert b[1] is c[2] is d[1] == (3, 1)

    def test_removing_an_id_twice_is_removing_it_once(self):
        rows = [con("a b c >= 1"), con("~a b >= 1"), con("a 2c d >= 2"), con("b ~c >= 1")]
        once, twice = engine_with(*rows), engine_with(*rows)
        once.remove_constraints([2])
        twice.remove_constraints([2, 2])
        twice.remove_constraints([2])
        assert twice.constraints == once.constraints
        assert twice.occs == once.occs
        assert once.occs[lit("d")] == [] and once.occs[lit("a")] == [(0, 1)]

    def test_search_after_removal_matches_lazy_skipping(self):
        rng = random.Random(4)
        for trial in range(20):
            inst = random_instance(8, 12, 6, 300 + trial)
            compacted = engine_with(*inst.constraints, nvars=inst.nvars)
            dropped = rng.sample(range(len(inst.constraints)), 4)
            compacted.remove_constraints(dropped)
            # Skipping the removed constraints is the same as never adding them.
            lazy = engine_with(*(c for i, c in enumerate(inst.constraints) if i not in dropped), nvars=inst.nvars)
            for _ in range(6):
                results = [compacted.propagate_all(), lazy.propagate_all()]
                conflicts = [e.constraints[r] if r is not None else None for e, r in zip((compacted, lazy), results)]
                assert conflicts[0] is conflicts[1]
                assert compacted.trail == lazy.trail
                if results[0] is not None:
                    break
                free = [v for v in range(1, 9) if value(compacted, v) is None]
                if not free:
                    break
                v = rng.choice(free)
                for engine in (compacted, lazy):
                    engine.assume(v)
            assert verify_slacks(compacted)


class TestPropagationMatchesReference:
    """The engine's propagation against the same loop assigning through ``assign``."""

    @staticmethod
    def random_row(rng, nvars):
        chosen = rng.sample(range(1, nvars + 1), rng.randint(1, 8))
        terms = [(v if rng.random() < 0.5 else -v, rng.randint(1, 6)) for v in chosen]
        return Constraint(terms, rng.randint(1, sum(w for _, w in terms)))

    def test_same_state_after_every_operation(self):
        rng = random.Random(35)
        conflicts = propagated = 0
        nvars = 20
        for seed in range(20):
            rows = balanced_instance(nvars, 60, seed, "test").constraints
            engine, reference = engine_with(*rows, nvars=nvars), engine_with(*rows, nvars=nvars)
            learned: list[int] = []
            for _ in range(150):
                found = engine.propagate_all()
                assert found == reference_propagate_all(reference)
                # ``index`` whole: every literal's slot, true or not.
                for field in ("trail", "levels", "reasons", "index", "slacks", "propagations"):
                    assert getattr(engine, field) == getattr(reference, field), field
                for cid, c in enumerate(engine.constraints):
                    if c is not None:
                        assert engine.max_weights[cid] == c.max_weight
                if found is not None:
                    conflicts += 1
                    if engine.current_level == 0:
                        break
                    target = rng.randrange(engine.current_level)
                    assert engine.backjump_to(target) == reference.backjump_to(target)
                    continue
                op = rng.random()
                free = [v for v in range(1, nvars + 1) if value(engine, v) is None]
                if op < 0.2 and engine.current_level > 0:
                    target = rng.randrange(engine.current_level)
                    assert engine.backjump_to(target) == reference.backjump_to(target)
                elif op < 0.35:
                    # A learned row, attached with its slack given as the
                    # solver gives it, and priced from scratch in the reference.
                    row = self.random_row(rng, nvars)
                    learned.append(engine.add_constraint(row, slack(row, set(engine.trail))))
                    assert reference.add_constraint(row) == learned[-1]
                elif op < 0.45 and learned:
                    reasons = set(engine.reasons)
                    dropped = [cid for cid in rng.sample(learned, rng.randint(1, len(learned))) if cid not in reasons]
                    engine.remove_constraints(dropped)
                    reference.remove_constraints(dropped)
                    learned = [cid for cid in learned if cid not in dropped]
                elif free:
                    v = rng.choice(free)
                    decision = v if rng.random() < 0.5 else -v
                    engine.assume(decision)
                    reference.assume(decision)
                else:
                    break
            assert verify_slacks(engine)
            propagated += engine.propagations
        assert conflicts > 100 and propagated > 800
