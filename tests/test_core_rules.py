"""Unit and property tests for the constraint representation and rules."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pbsolve import core
from pbsolve.core import (
    Constraint,
    cancel,
    cancel_multipliers,
    divide,
    multiply,
    normalize,
    partial_weaken,
    saturate,
    slack,
    weaken,
)
from helpers import (
    asg,
    con,
    implies_semantically,
    lit,
    literals,
    propagation_candidates,
    sorted_then_validated,
    weight,
)


class TestConstraint:
    def test_canonical_order_and_equality(self):
        left = Constraint([(3, 2), (1, 5), (-2, 1)], 4)
        right = Constraint([(-2, 1), (1, 5), (3, 2)], 4)
        assert left == right
        assert hash(left) == hash(right)
        assert [l for l, _ in left.terms] == [1, -2, 3]
        assert left.max_weight == right.max_weight == 5
        assert Constraint([(1, 2), (-2, 7), (3, 4)], 4).max_weight == 7
        assert Constraint((), 1).max_weight == 0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Constraint([(1, 0)], 1)
        with pytest.raises(ValueError):
            Constraint([(1, 1), (-1, 1)], 1)
        with pytest.raises(ValueError):
            Constraint([(1, 2)], 0)

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([(0, 1)], "variable index must be >= 1"),
            ([(3, 1), (1, 1), (-3, 2)], "variable x3 occurs twice"),
            ([(2, 1), (2, 3)], "variable x2 occurs twice"),
        ],
    )
    def test_bad_terms_rejected(self, terms, message):
        with pytest.raises(ValueError, match=message):
            Constraint(terms, 1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 x0 >= 1", "variable index must be >= 1"),
            ("1 x+5 >= 1", "bad literal token"),
            ("1 y3 >= 1", "bad literal token"),
            ("1 ~~x1 >= 1", "bad literal token '~~x1'"),
            ("1 ~1 >= 1", "bad literal token '~1'"),
            ("1 ~x >= 1", "bad literal token '~x'"),
            ("1 >= 1", "odd token count"),
            ("1 x1", "missing '>=' in '1 x1'"),
        ],
    )
    def test_bad_text_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            Constraint.from_text(text)

    def test_text_round_trip(self):
        c = con("6~b 6c 4e f g h >= 7")
        assert Constraint.from_text(c.to_text()) == c


class TestNormalize:
    def test_negative_weight_flips_literal(self):
        (result,) = normalize([(-3, 1), (2, 2)], ">=", -1)
        # The rewriting alone gives 3~a 2b >= 2; the stored form is saturated.
        assert result == con("2~a 2b >= 2")
        assert implies_semantically([con("3~a 2b >= 2")], result)
        assert implies_semantically([result], con("3~a 2b >= 2"))

    def test_nonpositive_degree_is_tautology(self):
        assert normalize([(2, 1), (3, 2)], ">=", 0) == []

    def test_already_normalized_is_unchanged(self):
        (result,) = normalize([(5, 1), (4, 2), (1, 3), (1, 4)], ">=", 6)
        assert result == con("5a 4b c d >= 6")

    def test_equality_splits(self):
        geq, leq = normalize([(1, 1), (1, 2)], "=", 1)
        assert geq == con("a b >= 1")
        assert leq == con("~a ~b >= 1")

    def test_leq_negates(self):
        (result,) = normalize([(1, 1), (1, 2)], "<=", 1)
        assert result == con("~a ~b >= 1")

    def test_unreachable_degree_is_contradiction(self):
        assert normalize([(1, 1)], ">=", 2) == [Constraint((), 1)]
        assert normalize([], ">=", 1) == [Constraint((), 1)]

    def test_opposing_literals_merge(self):
        # 3a + 2~a = a + 2, so the degree drops below one: tautology here.
        assert normalize([(3, 1), (2, -1), (1, 2)], ">=", 1) == []
        (result,) = normalize([(3, 1), (2, -1), (2, 2)], ">=", 4)
        assert result == con("a 2b >= 2")

    def test_output_is_saturated(self):
        (result,) = normalize([(9, 1), (1, 2)], ">=", 3)
        assert result == con("3a b >= 3")

    @pytest.mark.parametrize(
        "raw_terms, relation, rhs, expected",
        [
            ([(3, 4), (-2, 1), (5, -3), (1, 2), (2, 4)], ">=", 2, ["2 ~x1 1 x2 4 ~x3 4 x4 >= 4"]),
            ([(1, 5), (2, -2), (-4, 3), (3, 1), (1, -5)], "<=", 1, ["3 ~x1 2 x2 4 x3 >= 5"]),
            ([(2, 3), (1, -1), (-3, 2), (2, -3), (4, 1)], "=", 3, ["3 x1 3 ~x2 >= 3", "3 ~x1 3 x2 >= 3"]),
            (
                [(7, 6), (-1, -2), (2, 2), (3, 1), (-5, 4)],
                "=",
                -2,
                ["3 x1 3 x2 4 ~x4 4 x6 >= 4", "3 ~x1 3 ~x2 5 x4 7 ~x6 >= 14"],
            ),
            ([(2, 2), (-1, 1)], "=", 2, ["1 ~x1 2 x2 >= 3"]),
            ([(1, 2), (1, -2), (1, 1)], ">=", 3, [" >= 1"]),
        ],
    )
    def test_shuffled_rows_reach_the_constructor_in_order(self, monkeypatch, raw_terms, relation, rhs, expected):
        # Built before the patch: the expected constraints come from text.
        want = [Constraint.from_text(text) for text in expected]

        def refuse(terms):
            raise AssertionError(f"terms out of variable order: {list(terms)}")

        monkeypatch.setattr(core, "_sorted_checked", refuse)
        assert normalize(raw_terms, relation, rhs) == want


class TestSlack:
    def test_propagation_scenario_slacks(self):
        rho = asg(a=1, c=0, d=0, e=0)
        reason = con("6~b 6c 4e f g h >= 7")
        assert slack(reason, rho) == 2
        assert propagation_candidates(reason, rho) == (lit("~b"),)
        rho.add(-2)  # the propagated literal
        conflict = con("5a 4b c d >= 6")
        assert slack(conflict, rho) == -1
        assert slack(conflict, rho) < 0

    def test_empty_assignment_slack_is_total_minus_degree(self):
        c = con("5a 4b c d >= 6")
        assert slack(c, set()) == 5 + 4 + 1 + 1 - 6

    def test_conflicting_cancellation_result(self):
        rho = asg(a=1, c=0, d=0, e=0, b=0)
        assert slack(con("25a 25c 16e 5d 4f >= 30"), rho) < 0

    def test_no_conflict_under_empty_assignment(self):
        assert slack(con("3a 2b >= 3"), set()) >= 0

    def test_candidates_second_scenario(self):
        rho = asg(a=0, c=0, f=0)
        assert propagation_candidates(con("3~a 3~b c d e >= 6"), rho) == (lit("~b"),)

    def test_open_clause_has_no_candidates(self):
        assert propagation_candidates(con("a b c >= 1"), set()) == ()

    def test_candidates_require_nonnegative_slack(self):
        with pytest.raises(ValueError):
            propagation_candidates(con("2a b >= 2"), asg(a=0))


class TestCancel:
    def test_weighted_sum_eliminates_pivot(self):
        out = cancel(con("5a 4b c d >= 6"), con("5~b 5c 4e f >= 5"), 2)
        assert out == con("25a 25c 16e 5d 4f >= 30")

    def test_clause_resolution_keeps_duplicate_weight(self):
        out = cancel(con("b c d >= 1"), con("~b c e >= 1"), 2)
        assert out == con("2c d e >= 1")

    def test_opposing_side_literals_merge(self):
        out = cancel(con("3~b 2a 2d ~e >= 5"), con("3a 3b c 2d >= 3"), 2)
        assert out == con("5a 4d c ~e >= 5")

    def test_multipliers_are_lcm_minimal(self):
        assert cancel_multipliers(con("4b c >= 2"), con("6~b e >= 3"), 2) == (3, 2)

    def test_same_polarity_is_rejected(self):
        with pytest.raises(ValueError):
            cancel(con("a b >= 1"), con("b c >= 1"), 2)
        with pytest.raises(ValueError):
            cancel(con("a c >= 1"), con("~b c >= 1"), 2)


class TestWeakenSaturateDivide:
    def test_weaken_drops_literal_and_degree(self):
        step1 = weaken(con("6~b 6c 4e f g h >= 7"), lit("g"))
        step2 = weaken(step1, lit("h"))
        assert step2 == con("6~b 6c 4e f >= 5")

    def test_weaken_to_nothing_is_tautology(self):
        with pytest.raises(ValueError):
            weaken(con("a >= 1"), 1)

    def test_weaken_requires_presence(self):
        with pytest.raises(ValueError):
            weaken(con("a >= 1"), 2)

    def test_partial_weaken_lowers_weight_and_degree(self):
        out = partial_weaken(con("8a 7b 7c 2d 2e f >= 11"), 1, 1)
        assert out == con("7a 7b 7c 2d 2e f >= 10")
        assert weaken(out, lit("f")) == con("7a 7b 7c 2d 2e >= 9")

    def test_partial_weaken_intermediate_value(self):
        assert partial_weaken(con("5a 5b 3c 2d >= 5"), 3, 2) == con("5a 5b c 2d >= 3")

    def test_partial_weaken_full_epsilon_matches_weaken(self):
        c = con("5a 3b 2c >= 4")
        for l, w in c.terms:
            if w < c.degree:
                assert partial_weaken(c, l, w) == weaken(c, l)
            else:  # both leave a tautology
                with pytest.raises(ValueError):
                    partial_weaken(c, l, w)
                with pytest.raises(ValueError):
                    weaken(c, l)

    def test_partial_weaken_range_checks(self):
        with pytest.raises(ValueError):
            partial_weaken(con("3a b >= 2"), 1, 4)
        with pytest.raises(ValueError):
            partial_weaken(con("3a b >= 2"), 1, 0)
        with pytest.raises(ValueError):
            partial_weaken(con("3a b >= 2"), -2, 1)

    def test_saturate_caps_weights(self):
        assert saturate(con("6~b 6c 4e f >= 5")) == con("5~b 5c 4e f >= 5")
        assert saturate(con("2c d e >= 1")) == con("c d e >= 1")
        assert saturate(con("5a 5b c 2d >= 3")) == con("3a 3b c 2d >= 3")

    def test_divide_uses_ceiling(self):
        assert divide(con("4b c d >= 1"), 4) == con("b c d >= 1")
        assert divide(con("6~b 6c 4e >= 4"), 6) == con("~b c e >= 1")

    def test_divide_by_one_is_identity(self):
        c = con("5a 3b >= 4")
        assert divide(c, 1) is c

    def test_divide_rejects_zero(self):
        with pytest.raises(ValueError):
            divide(con("a >= 1"), 0)

    def test_multiply_scales(self):
        assert multiply(con("2a b >= 2"), 3) == con("6a 3b >= 6")


class TestImpliesSemantically:
    def test_cancellation_output_is_implied(self):
        premises = [con("5a 4b c d >= 6"), con("5~b 5c 4e f >= 5")]
        assert implies_semantically(premises, con("25a 25c 16e 5d 4f >= 30"))

    def test_reflexivity(self):
        c = con("a >= 1")
        assert implies_semantically([c], c)

    def test_empty_premises_imply_only_tautologies(self):
        assert not implies_semantically([], con("a >= 1"))

    def test_non_implication_detected(self):
        assert not implies_semantically([con("a b >= 1")], con("a >= 1"))

    def test_enumeration_bound(self):
        wide = Constraint([(v, 1) for v in range(1, 22)], 1)
        with pytest.raises(ValueError):
            implies_semantically([], wide)

    def test_bigint_fallback_matches(self):
        big = 1 << 70
        premise = Constraint([(1, big), (2, big)], big)
        conclusion = Constraint([(1, 1), (2, 1)], 1)
        assert implies_semantically([premise], conclusion)
        assert not implies_semantically([conclusion], Constraint([(1, big)], big))


# -- randomized properties ----------------------------------------------------


@st.composite
def constraints(draw, max_vars=8, max_weight=9):
    n = draw(st.integers(1, max_vars))
    variables = draw(
        st.lists(st.integers(1, max_vars), min_size=n, max_size=n, unique=True)
    )
    terms = []
    total = 0
    for v in variables:
        w = draw(st.integers(1, max_weight))
        total += w
        terms.append((v if draw(st.booleans()) else -v, w))
    degree = draw(st.integers(1, total))
    return saturate(Constraint(terms, degree))


@st.composite
def assignments(draw, max_vars=8):
    pairs = draw(
        st.dictionaries(st.integers(1, max_vars), st.booleans(), max_size=max_vars)
    )
    return {v if b else -v for v, b in pairs.items()}


@given(constraints(), assignments())
@settings(max_examples=200, deadline=None)
def test_saturation_is_idempotent_and_sound(c, rho):
    s = saturate(c)
    assert saturate(s) == s
    assert implies_semantically([c], s)
    # Saturation never raises the slack.
    assert slack(s, rho) <= slack(c, rho)


@given(constraints(), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_division_is_monotone_and_sound(c, r):
    out = divide(c, r)
    assert out.degree <= c.degree
    for l, w in c.terms:
        assert weight(out, l) <= w
    assert implies_semantically([c], out)


@given(constraints())
@settings(max_examples=150, deadline=None)
def test_weaken_agrees_with_full_partial_weaken(c):
    for l, w in c.terms:
        if w >= c.degree:  # both leave a tautology
            with pytest.raises(ValueError):
                weaken(c, l)
            with pytest.raises(ValueError):
                partial_weaken(c, l, w)
            continue
        assert weaken(c, l) == partial_weaken(c, l, w)
        assert implies_semantically([c], weaken(c, l))


@given(constraints(), constraints(), assignments())
@settings(max_examples=300, deadline=None)
def test_cancellation_soundness_and_slack_subadditivity(c1, c2, rho):
    pivots = [abs(l) for l in literals(c1) if -l in literals(c2)]
    if not pivots:
        return
    pivot = pivots[0]
    mu, nu = cancel_multipliers(c1, c2, pivot)
    try:
        out = cancel(c1, c2, pivot)
    except ValueError:  # a tautology
        return
    assert pivot not in literals(out) and -pivot not in literals(out)
    assert implies_semantically([c1, c2], out)
    assert slack(out, rho) <= mu * slack(c1, rho) + nu * slack(c2, rho)


@given(
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-8, 8).filter(lambda x: x != 0)),
        max_size=8,
    ),
    st.sampled_from([">=", "=", "<="]),
    st.integers(-20, 20),
)
@settings(max_examples=300, deadline=None)
def test_normalization_preserves_satisfying_assignments(raw, relation, rhs):
    results = normalize(raw, relation, rhs)
    variables = sorted({abs(l) for _, l in raw})
    for values in itertools.product((False, True), repeat=len(variables)):
        total = dict(zip(variables, values))
        lhs = sum(w * (1 if (total[abs(l)] == (l > 0)) else 0) for w, l in raw)
        if relation == ">=":
            raw_ok = lhs >= rhs
        elif relation == "<=":
            raw_ok = lhs <= rhs
        else:
            raw_ok = lhs == rhs
        normalized_ok = all(r.satisfied_by(total) for r in results)
        assert raw_ok == normalized_ok


@given(
    st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-8, 8).filter(lambda x: x != 0)),
        max_size=8,
    ),
    st.integers(-20, 20),
)
@settings(max_examples=200, deadline=None)
def test_normalized_constraints_start_with_nonnegative_slack(raw, rhs):
    for result in normalize(raw, ">=", rhs):
        assert slack(result, set()) >= 0 or result == Constraint((), 1)


@st.composite
def term_lists(draw):
    """Term lists in ascending variable order, shuffled, or with repeated
    terms; zero and negative weights and literal 0 occur among them."""
    pool = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-1, 4)), max_size=8))
    order = draw(st.sampled_from(("ascending", "shuffled", "duplicated")))
    if order == "ascending":
        first = {}
        for lit_, w in pool:
            first.setdefault(abs(lit_), (lit_, w))
        return [first[v] for v in sorted(first)]
    if order == "shuffled":
        return draw(st.permutations(pool))
    return draw(st.permutations(pool + pool[: draw(st.integers(0, len(pool)))]))


@given(term_lists(), st.integers(-1, 6))
@settings(max_examples=400, deadline=None)
def test_constructor_agrees_with_sort_then_validate(terms, degree):
    try:
        expected = sorted_then_validated(terms, degree)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Constraint(terms, degree)
        assert str(got.value) == str(exc)
    else:
        assert Constraint(terms, degree).terms == expected
