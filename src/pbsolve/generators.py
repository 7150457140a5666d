"""Instance families: pigeonhole and one seeded random family, the balanced rows."""

from __future__ import annotations

import random

from .core import Constraint, normalize
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


def balanced_instance(nvars: int, nconstraints: int, seed: int, tag: str) -> ParsedInstance:
    """A reproducible random instance of six-variable rows.

    Each row names six distinct variables with weights in 1..10 and
    fair-coin polarities, and asks for a quarter of its weight sum (rounded
    up).  The draws come from the string
    ``balanced/{seed}/{tag}/{nvars}/{nconstraints}``, so distinct tags give
    independent instances of one size and seed.  Rows are built through
    :func:`normalize`, as parsing builds them, so the instance equals its
    written OPB text parsed back.
    """
    if nvars < 6:
        raise ValueError(f"nvars must be >= 6 (a row samples six variables), got {nvars}")
    if nconstraints < 1:
        raise ValueError(f"nconstraints must be >= 1, got {nconstraints}")
    rng = random.Random(f"balanced/{seed}/{tag}/{nvars}/{nconstraints}")
    constraints = []
    for _ in range(nconstraints):
        variables = rng.sample(range(1, nvars + 1), 6)
        weights = [rng.randint(1, 10) for _ in variables]
        terms = [(w, v if rng.random() < 0.5 else -v) for v, w in zip(variables, weights)]
        constraints += normalize(terms, ">=", -(-sum(weights) // 4))
    return ParsedInstance(
        name=f"rand-{tag}-{nvars}-{nconstraints}",
        declared_vars=nvars,
        constraints=constraints,
    )
