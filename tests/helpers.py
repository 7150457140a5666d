"""Shared test builders: compact constraint and assignment notation.

``con("6~b 6c 4e f g h >= 7")`` builds a constraint over letter variables
(a..z map to 1..26) with optional weight prefixes and ``~`` negation;
``asg(a=1, c=0)`` builds a partial assignment over the same letters.
``linear_decide_literal`` is the reference for the solver's decision heap.
"""

from __future__ import annotations

from pbsolve.core import Constraint


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
