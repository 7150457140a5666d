"""Shared test builders: compact constraint and assignment notation.

``con("6~b 6c 4e f g h >= 7")`` builds a constraint over letter variables
(a..z map to 1..26) with optional weight prefixes and ``~`` negation;
``asg(a=1, c=0)`` builds a partial assignment over the same letters: the set
of its true literals, here ``{a, ~c}``.  ``random_instance`` builds a
small seeded random instance of two- to five-variable rows for the tests
that check answers against the enumeration oracle.

The reference implementations the tests compare the solver against also live
here: ``implies_semantically``, the exhaustive-enumeration implication oracle;
``is_assertive`` and ``backjump_level``, the level-by-level definition of
assertiveness behind ``assertion_level``, the solver's ``settle`` pass run
on a copy of any constraint; and
``linear_decide_literal``, the reference for the solver's decision heap;
``reference_propagate_all``, the reference for
``PropagationEngine.propagate_all``, which assigns through ``assign``;
``bump_one_at_a_time``, the reference for ``Solver.bump_variables``;
``sorted_then_validated``, the reference for the ``Constraint`` constructor;
``brute_force_status``, the reference for a solver's answer, which is the
oracle's special case: an instance is UNSAT exactly when its rows imply the
empty constraint;
``cancel``, ``weaken``, ``partial_weaken``, ``saturate``, ``divide`` and
``multiply``, the cutting-planes rules as pure functions that return a
fresh :class:`Constraint` (with ``cancel_multipliers``, the minimal
multipliers of a cancellation); and ``reference_resolve_step`` with the
four ``reference_reduce_*`` / ``reference_weaken_ineffective`` reductions,
composed from those pure rules, which the solver's in-place accumulator
must match step for step.  The references take a set ``rho`` of true
literals; ``as_record`` lays such a set out as the engine's two-slot record
that the package's reductions read, ``(index, p)``, and ``falsified_at`` is
the record's falsified test written out.  ``resolved`` runs the package's
``resolve_step`` and the solver's ``settle`` pass after it on a constraint
and returns the outcome in the reference's form, and ``on_accumulator``
does the same for one reduction, both reading an accumulator's value with
``Accumulator.constraint()``; ``observe_resolve_steps`` lets a test
watch every resolve step of the solver.  ``replay_steps`` computes every
step of a derivation trace through the pure rules, the reference for the
trace checker's arithmetic, the rule functions of :mod:`pbsolve.core`.

Queries only tests ask are free functions here rather than package surface:
``literals``, ``total_weight``, ``weight`` and ``is_clause`` on a
constraint;
``propagation_candidates``, the literals a constraint propagates; and
``value``, ``reason_of``, ``check_record`` and ``verify_slacks`` on a
propagation engine, the last two checking the record of the assignment
against the trail and recomputing every stored slack.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from bisect import bisect_left
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

import pbsolve.solver
from pbsolve.analysis import Accumulator, AnalysisError, resolve_step
from pbsolve.core import Assignment, Constraint, lit_name, normalize, slack
from pbsolve.opb import SAT, UNSAT, ParsedInstance
from pbsolve.propagation import PropagationEngine
from pbsolve.solver import settle
from pbsolve.trace import RULES, DerivationTrace


def var(letter: str) -> int:
    return ord(letter) - ord("a") + 1


def lit(token: str) -> int:
    if token.startswith("~"):
        return -var(token[1:])
    return var(token)


def con(text: str) -> Constraint:
    left, _, degree = text.partition(">=")
    terms = []
    for token in left.split():
        i = 0
        while i < len(token) and token[i].isdigit():
            i += 1
        weight = int(token[:i]) if i else 1
        name = token[i:]
        negated = name.startswith("~")
        v = var(name[1:] if negated else name)
        terms.append((-v if negated else v, weight))
    return Constraint(terms, int(degree.strip()))


def random_instance(
    nvars: int,
    nconstraints: int,
    max_weight: int,
    seed: int,
) -> ParsedInstance:
    """A reproducible random instance with non-negative initial slack.

    Weights are uniform in ``[1, max_weight]`` and polarities are fair coins.
    Constraints span two to five variables and each degree is drawn from the
    lower half of the weight sum, keeping the empty-assignment slack
    non-negative while leaving room for search (degrees near the full sum
    force almost every literal and make instances trivially unsatisfiable).
    The same seed yields the identical instance.
    """
    if nvars < 1 or nconstraints < 1 or max_weight < 1:
        raise ValueError("all generator parameters must be positive")
    rng = random.Random(seed)
    constraints = []
    for _ in range(nconstraints):
        width = rng.randint(min(2, nvars), min(5, nvars))
        variables = rng.sample(range(1, nvars + 1), width)
        terms = []
        total = 0
        for v in variables:
            w = rng.randint(1, max_weight)
            total += w
            terms.append((w, v if rng.random() < 0.5 else -v))
        constraints += normalize(terms, ">=", rng.randint(1, max(1, total // 2)))
    return ParsedInstance(
        name=f"random-{nvars}-{nconstraints}-{max_weight}-{seed}",
        declared_vars=nvars,
        constraints=constraints,
    )


def asg(**values: int | bool) -> set[int]:
    return {var(name) if v else -var(name) for name, v in values.items()}


def literals(c: Constraint) -> tuple[int, ...]:
    return tuple(lit for lit, _ in c.terms)


def total_weight(c: Constraint) -> int:
    return sum(w for _, w in c.terms)


def weight(c: Constraint, lit: int) -> int:
    """The weight of ``lit`` in ``c``; 0 when it is absent."""
    return dict(c.terms).get(lit, 0)


def is_clause(c: Constraint) -> bool:
    return c.degree == 1 and all(w == 1 for _, w in c.terms)


def propagation_candidates(c: Constraint, rho: Assignment) -> tuple[int, ...]:
    """Unassigned literals whose weight exceeds the slack.

    Those literals must be satisfied for the constraint to remain satisfiable,
    so they are propagated.  Requires a non-negative slack.
    """
    s = slack(c, rho)
    if s < 0:
        raise ValueError("constraint is conflicting; no propagation candidates")
    if s >= c.max_weight:
        return ()
    return tuple(
        lit for lit, w in c.terms if w > s and lit not in rho and -lit not in rho
    )


def _trail_index(engine, lit: int) -> int | None:
    """The trail index of ``lit``'s variable, read off both of its slots, which must agree:
    ``t`` and ``~t``, one for each literal, or None and None.

    A literal outside the engine's range would read another literal's slot."""
    if not 0 < abs(lit) <= engine.nvars:
        raise ValueError(f"literal {lit} is outside the engine's +-1..+-{engine.nvars}")
    own, other = engine.index[lit], engine.index[-lit]
    if own is None and other is None:
        return None
    assert own is not None and other == ~own, f"the slots of {lit} and {-lit} disagree: {own}, {other}"
    return max(own, other)


def value(engine, lit: int) -> bool | None:
    """Truth value of a literal on the engine's trail; None when unassigned."""
    t = _trail_index(engine, lit)
    return None if t is None else engine.trail[t] == lit


def reason_of(engine, v: int) -> int | None:
    """The reason constraint id of an assigned variable, or None for a decision."""
    return engine.reasons[_trail_index(engine, v)]


def check_record(engine) -> None:
    """Assert that ``engine.index`` records the trail: for every trail index ``t``,
    ``index[trail[t]] == t`` and ``index[-trail[t]] == ~t``, and every other slot is None."""
    index, trail, n = engine.index, engine.trail, engine.nvars
    assert len(index) == 2 * n + 1
    for t, lit in enumerate(trail):
        assert index[lit] == t and index[-lit] == ~t, (t, lit, index[lit], index[-lit])
    assigned = {*trail, *(-lit for lit in trail)}
    assert [index[l] for l in range(-n, n + 1) if l not in assigned] == [None] * (2 * (n - len(trail)) + 1)


def falsified_at(index, p: int, lit: int) -> bool:
    """Whether ``lit`` is falsified at a resolve step whose pivot sits at trail index ``p``,
    read off the record as its rule says: its own slot holds ``~t`` with ``t <= p``."""
    q = index[lit]
    return q is not None and q < 0 and ~q <= p


def _root_engine(rho, *sides) -> PropagationEngine:
    """An engine holding the true literals ``rho`` at the root, in variable order (trail
    indices 0..k-1), sized to every variable that ``rho`` and the ``sides`` name."""
    named = [*rho, *(lit for side in sides for lit, _ in side.terms)]
    engine = PropagationEngine(max(map(abs, named), default=0))
    for lit in sorted(rho, key=abs):
        engine.assign(lit, None)
    return engine


def as_record(rho, *sides) -> tuple[list[int | None], int]:
    """The set of true literals ``rho`` laid out as the engine's record, ``(index, p)``:
    its literals at trail indices 0..k-1 and ``p = k - 1``, so a literal is falsified
    at ``p`` exactly when its negation is in ``rho``.  The list covers every variable
    that ``rho`` and the ``sides`` (constraints or accumulators) name."""
    return _root_engine(rho, *sides).index, len(rho) - 1


def verify_slacks(engine) -> bool:
    """Full recomputation check of every stored slack (debug oracle), priced from the trail."""
    rho = set(engine.trail)
    for cid, c in enumerate(engine.constraints):
        if c is not None and engine.slacks[cid] != slack(c, rho):
            return False
    return True


def reference_propagate_all(engine) -> int | None:
    """``engine.propagate_all()`` with every assignment made through ``engine.assign``.

    The same fixpoint loop and counters, reading each visited constraint's
    ``max_weight`` off the constraint itself.
    """
    constraints, slacks, occs, trail = engine.constraints, engine.slacks, engine.occs, engine.trail
    while True:
        cid = engine._scanned
        if cid < len(constraints):
            c = constraints[cid]
            if c is not None:
                s = slacks[cid]
                if s < 0:
                    return cid
                if s < c.max_weight:
                    _reference_scan(engine, cid, c, s)
            engine._scanned = cid + 1
        elif engine._qhead < len(trail):
            qhead = engine._qhead
            for cid, _ in occs[-trail[qhead]]:
                s = slacks[cid]
                if s < 0:
                    return cid
                c = constraints[cid]
                if s < c.max_weight:
                    _reference_scan(engine, cid, c, s)
            engine._qhead = qhead + 1
        else:
            return None


def _reference_scan(engine, cid: int, c: Constraint, s: int) -> None:
    for lit, w in c.terms:
        if w > s and value(engine, lit) is None:
            engine.assign(lit, cid)
            engine.propagations += 1


def linear_decide_literal(solver) -> int:
    """The decision by a linear scan: maximal activity, lowest index on ties."""
    best_v = 0
    best_a = -1.0
    for v in range(1, solver.nvars + 1):
        if value(solver.engine, v) is not None:
            continue
        a = solver._activity[v]
        if a > best_a:
            best_v, best_a = v, a
    if not best_v:
        raise ValueError("all variables are assigned")
    return solver._phase[best_v] or -best_v


def bump_one_at_a_time(solver, variables) -> None:
    """Bump each variable's activity with a separate update, pushing each unassigned one;
    then rebuild the heap once if the pushes left it past its size bound."""
    for v in variables:
        solver._activity[v] += solver._var_inc
        if value(solver.engine, v) is None:
            heapq.heappush(solver._heap, (-solver._activity[v], v))
    if len(solver._heap) > pbsolve.solver._HEAP_SLACK_FACTOR * solver.nvars + 16:
        solver._rebuild_heap()


def sorted_then_validated(terms, degree: int) -> tuple[tuple[int, int], ...]:
    """The terms a constraint holds: sort by variable, then check each term."""
    pairs = sorted(terms, key=lambda t: abs(t[0]))
    prev = 0
    for lit, w in pairs:
        if w < 1:
            raise ValueError(f"weight must be >= 1, got {w} on {lit_name(lit)}")
        if abs(lit) < 1:
            raise ValueError(f"variable index must be >= 1, got literal {lit}")
        if abs(lit) == prev:
            raise ValueError(f"variable x{abs(lit)} occurs twice")
        prev = abs(lit)
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return tuple(pairs)


class ResolveOutcome(NamedTuple):
    """One resolve step: the new conflict side, the fallback flag, and the
    conflict side's slack under the step's assignment as handed to the step
    (``given_slack``) and after it (``slack``)."""

    constraint: Constraint
    fallback: bool
    given_slack: int
    slack: int


def on_accumulator(reduction, c: Constraint, pivot: int | None, rho, *args, **kwargs) -> Constraint:
    """Run an in-place reduction on an accumulator holding ``c``, its own pivot (or kept literal)
    ``pivot``, under ``rho`` laid out by :func:`as_record`; its result."""
    side = Accumulator(c)
    reduction(side, pivot, *as_record(rho, c), *args, **kwargs)
    return side.constraint()


def resolved(conflict: Constraint, reason: Constraint, pivot: int, rho, strategy: str) -> ResolveOutcome:
    """The package's ``resolve_step`` run on an accumulator holding ``conflict``,
    then the solver's pass over it, on an engine holding ``rho`` at the root
    as :func:`as_record` lays it out."""
    side = Accumulator(conflict)
    given = slack(conflict, rho)
    engine = _root_engine(rho, conflict, reason)
    fallback = resolve_step(side, Accumulator(reason), pivot, engine.index, len(rho) - 1, strategy, given)
    after, _, _ = settle(side, engine, len(rho) - 1)
    return ResolveOutcome(side.constraint(), fallback, given, after)


def assertion_level(engine, c) -> int | None:
    """Smallest level below the engine's current one at which ``c`` asserts, or None.

    ``c``, a :class:`Constraint` or an :class:`Accumulator`, is left unchanged:
    ``settle`` runs on a copy, whose saturation changes no assertion level.
    """
    return settle(Accumulator(c), engine, len(engine.trail))[1]


def observe_resolve_steps(monkeypatch, observer) -> None:
    """Call ``observer(conflict, reason, pivot, rho, outcome)`` after each resolve step.

    ``monkeypatch`` wraps the solver's ``resolve_step`` and ``settle``, the
    pass that follows each step, until it is undone.  The step rewrites the
    solver's conflict side and reduces the reason's accumulator, both in
    place, so ``conflict`` and ``reason`` are constraints taken before the
    step and ``outcome`` a
    :class:`ResolveOutcome` taken after the pass, holding the slack the
    solver handed to the step and the one the pass returned.  ``rho`` is the
    step's assignment as a set of true literals, built from the trail prefix
    through the pivot, so the observer may keep it; the observer must not
    mutate its other arguments.
    """
    step = pbsolve.solver.resolve_step
    pending = []

    def observed_step(conflict, reason, pivot, index, p, strategy, conflict_slack):
        before, reason_before = conflict.constraint(), reason.constraint()
        fallback = step(conflict, reason, pivot, index, p, strategy, conflict_slack)
        pending.append((before, reason_before, pivot, fallback, conflict_slack))
        return fallback

    def observed_settle(side, engine, p):
        result = settle(side, engine, p)
        before, reason, pivot, fallback, given = pending.pop()
        rho = set(engine.trail[: p + 1])
        observer(before, reason, pivot, rho, ResolveOutcome(side.constraint(), fallback, given, result[0]))
        return result

    monkeypatch.setattr(pbsolve.solver, "resolve_step", observed_step)
    monkeypatch.setattr(pbsolve.solver, "settle", observed_settle)


# -- the rules as pure functions on constraints ----------------------------------
#
# Each returns a fresh Constraint and leaves its inputs unchanged.  The
# package's rule functions, the trace checker's in-place arithmetic on
# ``{literal: weight}`` dicts, and the solver's accumulator must agree with
# them.


def cancel_multipliers(c1: Constraint, c2: Constraint, pivot: int) -> tuple[int, int]:
    """Minimal multipliers (mu, nu) equalizing the pivot weights of c1 and c2."""
    found = []
    for c in (c1, c2):
        i = bisect_left(c.terms, abs(pivot), key=lambda t: abs(t[0]))
        if i == len(c.terms) or abs(c.terms[i][0]) != abs(pivot):
            raise ValueError(f"pivot x{pivot} must occur in both constraints")
        found.append(c.terms[i])
    (lit1, w1), (lit2, w2) = found
    if lit1 != -lit2:
        raise ValueError(f"pivot x{pivot} must occur with opposite polarities")
    common = lcm(w1, w2)
    return common // w1, common // w2


def cancel(c1: Constraint, c2: Constraint, pivot: int) -> Constraint:
    """Cancellation: the weighted sum of c1 and c2 eliminating ``pivot``.

    Uses the minimal (LCM) multipliers.  Opposing literal pairs other than the
    pivot are merged: the dominant polarity keeps the weight difference and
    the degree drops by the cancelled amount.  The result is *not* saturated.
    """
    mu, nu = cancel_multipliers(c1, c2, pivot)
    weights = {lit: mu * w for lit, w in c1.terms}
    degree = mu * c1.degree + nu * c2.degree
    for lit, w in c2.terms:
        w *= nu
        opposite = weights.pop(-lit, 0)
        if opposite:
            degree -= min(opposite, w)
            if opposite > w:
                weights[-lit] = opposite - w
            elif w > opposite:
                weights[lit] = w - opposite
        else:
            weights[lit] = weights.get(lit, 0) + w
    return Constraint(weights.items(), degree)


def _position(c: Constraint, lit: int) -> int:
    """The index of ``lit``'s term, by bisection on the variable order; ValueError if absent."""
    i = bisect_left(c.terms, abs(lit), key=lambda t: abs(t[0]))
    if i == len(c.terms) or c.terms[i][0] != lit:
        raise ValueError(f"literal {lit_name(lit)} is absent")
    return i


def weaken(c: Constraint, lit: int) -> Constraint:
    """Remove a literal and lower the degree by its weight."""
    i = _position(c, lit)
    return Constraint(c.terms[:i] + c.terms[i + 1 :], c.degree - c.terms[i][1])


def partial_weaken(c: Constraint, lit: int, eps: int) -> Constraint:
    """Lower a literal's weight and the degree by ``eps`` (0 < eps <= weight).

    ``eps`` equal to the full weight coincides with :func:`weaken`.
    """
    i = _position(c, lit)
    w = c.terms[i][1]
    if not 0 < eps <= w:
        raise ValueError(f"eps must be in 1..{w}, got {eps}")
    kept = ((lit, w - eps),) if eps < w else ()
    return Constraint(c.terms[:i] + kept + c.terms[i + 1 :], c.degree - eps)


def saturate(c: Constraint) -> Constraint:
    """Cap every weight at the degree.  Idempotent."""
    if c.max_weight <= c.degree:
        return c
    return Constraint([(lit, min(w, c.degree)) for lit, w in c.terms], c.degree)


def divide(c: Constraint, r: int) -> Constraint:
    """Ceiling-divide every weight and the degree by ``r >= 1``."""
    if r < 1:
        raise ValueError(f"divisor must be >= 1, got {r}")
    if r == 1:
        return c
    return Constraint([(lit, -(-w // r)) for lit, w in c.terms], -(-c.degree // r))


def multiply(c: Constraint, k: int) -> Constraint:
    """Scale every weight and the degree by ``k >= 1``."""
    if k < 1:
        raise ValueError(f"multiplier must be >= 1, got {k}")
    if k == 1:
        return c
    return Constraint([(lit, k * w) for lit, w in c.terms], k * c.degree)


#: Each trace rule name -> the pure rule above that it names.
REFERENCE_RULES = {
    "cancel": cancel,
    "weaken": weaken,
    "pweaken": partial_weaken,
    "saturate": saturate,
    "divide": divide,
    "multiply": multiply,
}


def replay_steps(instance: ParsedInstance, trace: DerivationTrace) -> dict[int, Constraint]:
    """Each input and step id of a trace -> the constraint it names, every
    step's output computed from its inputs by its pure rule; a ``weaken``
    step's run of literals is one pure :func:`weaken` per literal, in turn."""
    by_id = dict(enumerate(instance.constraints, start=1))
    for step_id, (rule, args) in enumerate(trace.steps, start=len(by_id) + 1):
        if rule == "weaken":
            by_id[step_id] = functools.reduce(weaken, args[1:], by_id[args[0]])
            continue
        n_inputs = RULES[rule][1]
        by_id[step_id] = REFERENCE_RULES[rule](*map(by_id.__getitem__, args[:n_inputs]), *args[n_inputs:])
    return by_id


# -- the constraint-level reference for conflict analysis ----------------------


def reference_reduce_genres(conflict: Constraint, reason: Constraint, pivot: int, rho) -> Constraint:
    """gen-res: weaken and saturate the reason until the slack sum is negative."""
    conflict_slack = slack(conflict, rho)
    reason = saturate(reason)
    while True:
        mu, nu = cancel_multipliers(conflict, reason, abs(pivot))
        if mu * conflict_slack + nu * slack(reason, rho) < 0:
            return reason
        candidates = sorted(
            (w, -abs(lit), lit)
            for lit, w in reason.terms
            if lit != pivot and -lit not in rho
        )
        if not candidates:
            raise AnalysisError("no weakenable literal left in a reason with high slack")
        reason = saturate(weaken(reason, candidates[0][2]))


def reference_reduce_rs(c: Constraint, pivot: int, rho, *, partial: bool = False) -> Constraint:
    """(partial) rounding: weaken non-divisible weights, divide by the pivot weight."""
    r = weight(c, pivot)
    if not r:
        raise ValueError("pivot does not occur in the constraint")
    for lit, w in c.terms:
        if lit == pivot or -lit in rho:
            continue
        rem = w % r
        if rem == 0:
            continue
        if partial and rem != w:
            c = partial_weaken(c, lit, rem)
        else:
            c = weaken(c, lit)
    return divide(c, r)


def reference_weaken_ineffective(
    c: Constraint, rho, *, pivot: int | None = None, protect: int | None = None
) -> Constraint:
    """Greedy weakening that keeps the conflict (pivot None) or the propagation."""
    start = slack(c, rho)
    if pivot is None:
        if start >= 0:
            raise ValueError("preserve-conflict mode requires a conflicting constraint")
    elif not 0 <= start < weight(c, pivot):
        raise ValueError("preserve-propagation mode requires the pivot to be propagated")
    order = sorted(
        (-lit in rho, w, abs(lit), lit)
        for lit, w in c.terms
        if lit != pivot and lit != protect
    )
    for _, _, _, lit in order:
        try:
            weakened = weaken(c, lit)
        except ValueError:  # weakening lit away leaves a tautology
            continue
        trial = saturate(weakened)
        if pivot is None:
            if slack(trial, rho) >= 0:
                continue
        elif weight(trial, pivot) <= slack(trial, rho):
            continue
        c = trial
    return c


def reference_reduce_multiply_weaken(
    reason: Constraint, pivot: int, conflict_pivot_weight: int, rho
) -> Constraint | None:
    """Multiply by ceil(c/r), weaken ineffective mass down to degree c; None to fall back."""
    cw = conflict_pivot_weight
    nu = -(-cw // weight(reason, pivot))
    need = nu * reason.degree - cw
    if need < 0:
        return None
    ineffective = sorted(
        (w, abs(lit), lit)
        for lit, w in reason.terms
        if lit != pivot and -lit not in rho
    )
    if sum(nu * w for w, _, _ in ineffective) < need:
        return None
    c = multiply(reason, nu)
    for w, _, lit in ineffective:
        if need == 0:
            break
        scaled = nu * w
        if scaled <= need:
            c = weaken(c, lit)
            need -= scaled
        else:
            c = partial_weaken(c, lit, need)
            need = 0
    return saturate(c)


def reference_resolve_step(
    conflict: Constraint, reason: Constraint, pivot: int, rho, strategy: str
) -> ResolveOutcome:
    """One resolve step composed from the pure rules, one new constraint per rule."""
    given = slack(conflict, rho)
    if given >= 0:
        raise ValueError("conflict side is not conflicting under the assignment")
    if -pivot not in literals(conflict):
        raise ValueError("the pivot's negation does not occur in the conflict side")
    if pivot not in literals(reason):
        raise ValueError("the pivot does not occur in the reason side")
    # Split from the id itself, not read from the package's table, so that
    # a wrong row there shows as a mismatch.
    family, _, side = strategy.rpartition("-")
    if side not in ("both", "conflict", "reason"):
        family, side = strategy, None
    fallback = False
    if family == "gen-res":
        reason = reference_reduce_genres(conflict, reason, pivot, rho)
    elif family in ("rs", "partial-rs"):
        partial = family == "partial-rs"
        if side in ("both", "conflict"):
            conflict = reference_reduce_rs(conflict, -pivot, rho, partial=partial)
        if side in ("both", "reason"):
            reason = reference_reduce_rs(reason, pivot, rho, partial=partial)
    elif family == "weaken-ineffective":
        if side in ("both", "conflict"):
            conflict = reference_weaken_ineffective(conflict, rho, protect=-pivot)
        if side in ("both", "reason"):
            reason = reference_weaken_ineffective(reason, rho, pivot=pivot)
        if side == "conflict":
            reason = reference_reduce_genres(conflict, reason, pivot, rho)
    else:
        reduced = reference_reduce_multiply_weaken(reason, pivot, weight(conflict, -pivot), rho)
        fallback = reduced is None
        if reduced is not None:
            reason = reduced
        reason = reference_reduce_genres(conflict, reason, pivot, rho)
    out = saturate(cancel(conflict, reason, abs(pivot)))
    after = slack(out, rho)
    if after >= 0:
        raise AnalysisError(f"reference step produced a non-conflicting constraint with {strategy}")
    return ResolveOutcome(out, fallback, given, after)


def assignment_at_level(engine, level: int) -> set[int]:
    """The true literals of the trail entries at levels <= level."""
    out: set[int] = set()
    for lit, at in zip(engine.trail, engine.levels):
        if at > level:
            break
        out.add(lit)
    return out


def is_assertive(c: Constraint, engine, level: int) -> bool:
    """True iff ``c`` would propagate under the trail restricted to ``level``."""
    rho = assignment_at_level(engine, level)
    if slack(c, rho) < 0:
        return False
    return bool(propagation_candidates(c, rho))


def backjump_level(c: Constraint, engine) -> int:
    """Smallest level at which ``c`` is assertive; raises when there is none."""
    for level in range(engine.current_level):
        if is_assertive(c, engine, level):
            return level
    raise ValueError("constraint is not assertive at any level below the current one")


_ENUMERATION_LIMIT = 20
_INT64_SAFE = 1 << 60


@functools.lru_cache(maxsize=8)
def _row_indices(n: int) -> np.ndarray:
    return np.arange(1 << n, dtype=np.int64)


def _truth_table(c: Constraint, index: Mapping[int, int], rows: np.ndarray) -> np.ndarray:
    # sum over true literals == base + sum(coef_v * bit_v) with coef signed.
    base = 0
    total = np.zeros(len(rows), dtype=np.int64)
    for lit, w in c.terms:
        i = index[abs(lit)]
        bit = (rows >> i) & 1
        if lit > 0:
            total += w * bit
        else:
            base += w
            total -= w * bit
    return total + base >= c.degree


def brute_force_status(instance: ParsedInstance) -> str:
    """SAT or UNSAT by the oracle: an instance is UNSAT exactly when its rows
    imply the empty constraint, which no assignment satisfies."""
    unsat = implies_semantically(instance.constraints, Constraint((), 1), range(1, instance.nvars + 1))
    return UNSAT if unsat else SAT


def implies_semantically(
    premises: Sequence[Constraint],
    conclusion: Constraint,
    variables: Iterable[int] | None = None,
) -> bool:
    """Exhaustive-enumeration implication check (the test oracle).

    True iff every total 0/1 assignment of ``variables`` satisfying all
    premises also satisfies the conclusion.  Limited to 20 variables.
    """
    if variables is None:
        vs: set[int] = set()
        for p in premises:
            vs.update(abs(l) for l, _ in p.terms)
        vs.update(abs(l) for l, _ in conclusion.terms)
    else:
        vs = set(variables)
        for c in (*premises, conclusion):
            missing = {abs(l) for l, _ in c.terms} - vs
            if missing:
                raise ValueError(f"constraint mentions variables outside the set: {sorted(missing)}")
    order = sorted(vs)
    n = len(order)
    if n > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration bound exceeded: {n} > {_ENUMERATION_LIMIT}")
    small = all(
        total_weight(c) + c.degree < _INT64_SAFE for c in (*premises, conclusion)
    )
    if small:
        index = {v: i for i, v in enumerate(order)}
        rows = _row_indices(n)
        ok = np.ones(len(rows), dtype=bool)
        for p in premises:
            ok &= _truth_table(p, index, rows)
            if not ok.any():
                return True
        return bool(np.all(_truth_table(conclusion, index, rows)[ok]))
    # Arbitrary-precision fallback for oversized coefficients.
    for values in itertools.product((False, True), repeat=n):
        total = dict(zip(order, values))
        if all(p.satisfied_by(total) for p in premises) and not conclusion.satisfied_by(total):
            return False
    return True
