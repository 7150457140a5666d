"""Instance families for tests and benchmarks: pigeonhole and seeded random."""

from __future__ import annotations

import random

from .core import Constraint
from .opb import ParsedInstance


def php_instance(pigeons: int, holes: int) -> ParsedInstance:
    """The pigeonhole principle: ``pigeons`` birds into ``holes`` holes.

    Variable ``x_{p,h}`` (index ``(p-1)*holes + h``) says pigeon ``p`` sits in
    hole ``h``.  Per pigeon one at-least-one clause, per hole one at-most-one
    constraint written as ``sum(~x_{p,h}) >= pigeons - 1``.  Unsatisfiable
    whenever ``pigeons > holes``.
    """
    if pigeons < 1 or holes < 1:
        raise ValueError("pigeon and hole counts must be positive")

    def var(p: int, h: int) -> int:
        return (p - 1) * holes + h

    constraints = []
    for p in range(1, pigeons + 1):
        constraints.append(
            Constraint([(var(p, h), 1) for h in range(1, holes + 1)], 1)
        )
    if pigeons >= 2:
        for h in range(1, holes + 1):
            constraints.append(
                Constraint([(-var(p, h), 1) for p in range(1, pigeons + 1)], pigeons - 1)
            )
    return ParsedInstance(
        name=f"php-{pigeons}-{holes}",
        declared_vars=pigeons * holes,
        constraints=constraints,
    )


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
            terms.append((v if rng.random() < 0.5 else -v, w))
        degree = rng.randint(1, max(1, total // 2))
        capped = [(lit, min(w, degree)) for lit, w in terms]
        constraints.append(Constraint(capped, degree))
    return ParsedInstance(
        name=f"random-{nvars}-{nconstraints}-{max_weight}-{seed}",
        declared_vars=nvars,
        constraints=constraints,
    )
