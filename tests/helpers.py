"""Shared test builders: compact constraint and assignment notation.

``con("6~b 6c 4e f g h >= 7")`` builds a constraint over letter variables
(a..z map to 1..26) with optional weight prefixes and ``~`` negation;
``asg(a=1, c=0)`` builds a partial assignment over the same letters.

The reference implementations the tests compare the solver against also live
here: ``implies_semantically``, the exhaustive-enumeration implication oracle;
``is_assertive`` and ``backjump_level``, the level-by-level definition of
assertiveness behind ``Solver._assertion_level``; and
``linear_decide_literal``, the reference for the solver's decision heap.
``observe_resolve_steps`` lets a test watch every resolve step of the solver.

Queries only tests ask are free functions here rather than package surface:
``literals``, ``total_weight`` and ``is_clause`` on a constraint;
``propagation_candidates``, the literals a constraint propagates; and
``value``, ``reason_of`` and ``verify_slacks`` on a propagation engine, the
last one recomputing every stored slack.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

import pbsolve.solver
from pbsolve.core import Assignment, Constraint, slack


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


def asg(**values: int | bool) -> dict[int, bool]:
    return {var(name): bool(v) for name, v in values.items()}


def literals(c: Constraint) -> tuple[int, ...]:
    return tuple(lit for lit, _ in c.terms)


def total_weight(c: Constraint) -> int:
    return sum(w for _, w in c.terms)


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
        lit for lit, w in c.terms if w > s and rho.get(abs(lit)) is None
    )


def value(engine, lit: int) -> bool | None:
    """Truth value of a literal on the engine's trail; None when unassigned."""
    v = engine.assignment.get(abs(lit))
    if v is None:
        return None
    return v == (lit > 0)


def reason_of(engine, v: int) -> int | None:
    """The reason constraint id of an assigned variable, or None for a decision."""
    return engine.trail[engine.var_pos[v]].reason


def verify_slacks(engine) -> bool:
    """Full recomputation check of every stored slack (debug oracle)."""
    for cid, c in enumerate(engine.constraints):
        if c is not None and engine.slacks[cid] != slack(c, engine.assignment):
            return False
    return True


def linear_decide_literal(solver) -> int:
    """The decision by a linear scan: maximal activity, lowest index on ties."""
    best_v = 0
    best_a = -1.0
    assigned = solver.engine.assignment
    for v in range(1, solver.nvars + 1):
        if v in assigned:
            continue
        a = solver._activity[v]
        if a > best_a:
            best_v, best_a = v, a
    if not best_v:
        raise ValueError("all variables are assigned")
    return best_v if solver._phase.get(best_v, False) else -best_v


def observe_resolve_steps(monkeypatch, observer) -> None:
    """Call ``observer(conflict, reason, pivot, rho, outcome)`` after each resolve step.

    ``monkeypatch`` wraps the solver's ``resolve_step`` until it is undone.
    The observer must not mutate its arguments.
    """
    original = pbsolve.solver.resolve_step

    def observed(conflict, reason, pivot, rho, strategy, **kwargs):
        outcome = original(conflict, reason, pivot, rho, strategy, **kwargs)
        observer(conflict, reason, pivot, rho, outcome)
        return outcome

    monkeypatch.setattr(pbsolve.solver, "resolve_step", observed)


def assignment_at_level(engine, level: int) -> dict[int, bool]:
    """The engine's assignment restricted to trail entries at levels <= level."""
    out: dict[int, bool] = {}
    for e in engine.trail:
        if e.level > level:
            break
        out[abs(e.lit)] = e.lit > 0
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
