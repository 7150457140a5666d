"""Normalized pseudo-Boolean constraints and the cutting-planes inference rules.

A constraint is kept in the normalized form ``sum(w_i * l_i) >= degree`` with
positive integer weights over literals of pairwise distinct variables.
Literals are plain signed integers (``+v`` / ``-v`` for variable index
``v >= 1``): ``-lit`` negates a literal and ``abs(lit)`` is its variable.
A partial assignment is the collection of its true literals, and every rule
operation is a pure function returning a fresh value.

No assignment satisfies the empty constraint ``>= 1``: it is the one form of
a trivially false constraint.  A trivially true one (degree 0 or below) is
not a constraint at all, so a rule whose result would be one raises
ValueError from the constructor.

Weights and degrees are plain Python integers, so coefficient growth during
cancellation chains never overflows.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

#: A partial assignment: the true literals.
Assignment = Collection[int]

_weight = itemgetter(1)


def lit_name(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


def format_constraint(terms: Iterable[tuple[int, int]], degree: int) -> str:
    """The text form of ``sum(w * lit) >= degree``, e.g. ``6 ~x2 4 x5 >= 7``.

    Terms are written in the order given.
    """
    parts = [f"{w} {lit_name(lit)}" for lit, w in terms]
    return " ".join(parts) + f" >= {degree}"


def _sorted_checked(terms: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The terms in ascending variable order; raises on the first invalid one."""
    pairs = sorted(terms, key=lambda t: abs(t[0]))
    prev = 0
    for lit, w in pairs:
        if w < 1:
            raise ValueError(f"weight must be >= 1, got {w} on {lit_name(lit)}")
        v = abs(lit)
        if v < 1:
            raise ValueError(f"variable index must be >= 1, got literal {lit}")
        # Sorted by variable, so a repeated variable follows its first term.
        if v == prev:
            raise ValueError(f"variable x{v} occurs twice")
        prev = v
    return tuple(pairs)


class Constraint:
    """An immutable normalized PB constraint ``sum(w_i * l_i) >= degree``.

    Terms are held in canonical order (ascending variable index), so equality
    and hashing are structural.  The constructor is the only way to build a
    constraint, for input and rule outputs alike, and it validates the
    normalized-form invariants: positive weights, variable indices >= 1, one
    literal per variable, degree >= 1.  Terms already in canonical order
    are checked in one pass without a sort.  ``terms``, ``degree`` and
    ``max_weight`` (the largest weight, 0 when empty) are plain attributes.
    Instances must never be mutated.
    """

    __slots__ = ("terms", "degree", "max_weight")

    def __init__(self, terms: Iterable[tuple[int, int]], degree: int):
        pairs = tuple(terms)
        # Input already in strictly ascending variable order with positive
        # weights is valid as it stands; anything else is sorted and checked.
        prev = 0
        for lit, w in pairs:
            v = abs(lit)
            if v <= prev or w < 1:
                pairs = _sorted_checked(pairs)
                break
            prev = v
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        self.terms: tuple[tuple[int, int], ...] = pairs
        self.degree: int = degree
        self.max_weight: int = max(pairs, key=_weight)[1] if pairs else 0

    @classmethod
    def from_text(cls, text: str) -> "Constraint":
        """Parse the :meth:`to_text` form, e.g. ``6 ~x2 4 x5 >= 7``.

        A literal token is ``xK`` or ``~xK``; only its shape is checked here,
        and the constructor rejects variable index 0.
        """
        left, sep, right = text.partition(">=")
        if not sep:
            raise ValueError(f"missing '>=' in {text!r}")
        tokens = left.split()
        if len(tokens) % 2 != 0:
            raise ValueError(f"odd token count in {text!r}")
        terms = []
        for weight, token in zip(tokens[::2], tokens[1::2]):
            negated = token.startswith("~x")
            body = token[2:] if negated else token[1:]
            if not (negated or token.startswith("x")) or not body.isdigit():
                raise ValueError(f"bad literal token {token!r}")
            terms.append((-int(body) if negated else int(body), int(weight)))
        return cls(terms, int(right.strip()))

    def to_text(self) -> str:
        return format_constraint(self.terms, self.degree)

    def satisfied_by(self, total: Mapping[int, bool]) -> bool:
        """Evaluate under a total ``variable -> bool`` model (missing variables count false)."""
        got = 0
        for lit, w in self.terms:
            v = total.get(abs(lit), False)
            if v == (lit > 0):
                got += w
        return got >= self.degree

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms, self.degree))

    def __repr__(self) -> str:
        return f"Constraint({self.to_text()!r})"


def normalize(
    raw_terms: Sequence[tuple[int, int]],
    relation: str,
    rhs: int,
) -> list[Constraint]:
    """Normalize a raw linear relation over Boolean literals.

    ``raw_terms`` holds ``(signed weight, literal)`` pairs.  ``>=`` and ``<=``
    are one ``>=`` relation, ``=`` is two.  Each relation yields one
    saturated :class:`Constraint`; one that every 0/1 assignment satisfies
    yields none, and one that none satisfies yields the empty constraint.
    """
    signs = {">=": (1,), "<=": (-1,), "=": (1, -1)}.get(relation)
    if signs is None:
        raise ValueError(f"unknown relation {relation!r}")
    # Net coefficient per variable on the positive literal; rewriting a term
    # on ~v as w - w*v moves w onto the right-hand side.
    net: dict[int, int] = {}
    for w, lit in raw_terms:
        if lit > 0:
            net[lit] = net.get(lit, 0) + w
        else:
            net[-lit] = net.get(-lit, 0) - w
            rhs -= w
    variables = sorted(net)
    constraints = []
    # Each sign gives one ``>=`` part, sign * sum(a * v) >= sign * rhs, built
    # in variable order so the constructor takes its one-pass path.
    for sign in signs:
        degree = sign * rhs
        terms = []
        for v in variables:
            a = sign * net[v]
            if a > 0:
                terms.append((v, a))
            elif a < 0:
                terms.append((-v, -a))
                degree -= a
        if degree <= 0:
            continue
        if sum(map(_weight, terms)) < degree:
            # Even the all-true assignment cannot reach the degree.
            terms, degree = (), 1
        constraints.append(Constraint([(lit, min(w, degree)) for lit, w in terms], degree))
    return constraints


def slack(c: Constraint, rho: Assignment) -> int:
    """Sum of the weights of non-falsified literals minus the degree.

    ``rho`` holds the true literals.  Reads only ``c.terms`` and
    ``c.degree``, so it also takes an :class:`pbsolve.analysis.Accumulator`.
    """
    s = -c.degree
    for lit, w in c.terms:
        if -lit not in rho:
            s += w
    return s


def cancel_multipliers(c1: Constraint, c2: Constraint, pivot: int) -> tuple[int, int]:
    """Minimal multipliers (mu, nu) equalizing the pivot weights of c1 and c2."""
    weights1, weights2 = dict(c1.terms), dict(c2.terms)
    w1 = weights1.get(pivot) or weights1.get(-pivot)
    w2 = weights2.get(pivot) or weights2.get(-pivot)
    if not w1 or not w2:
        raise ValueError(f"pivot x{pivot} must occur in both constraints")
    if (pivot in weights1) == (pivot in weights2):
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


def weaken(c: Constraint, lit: int) -> Constraint:
    """Remove a literal and lower the degree by its weight."""
    w = dict(c.terms).get(lit)
    if not w:
        raise ValueError(f"literal {lit_name(lit)} is absent")
    degree = c.degree - w
    return Constraint([t for t in c.terms if t[0] != lit], degree)


def partial_weaken(c: Constraint, lit: int, eps: int) -> Constraint:
    """Lower a literal's weight and the degree by ``eps`` (0 < eps <= weight).

    ``eps`` equal to the full weight coincides with :func:`weaken`.
    """
    w = dict(c.terms).get(lit)
    if not w:
        raise ValueError(f"literal {lit_name(lit)} is absent")
    if not 0 < eps <= w:
        raise ValueError(f"eps must be in 1..{w}, got {eps}")
    degree = c.degree - eps
    left = w - eps
    return Constraint([(l, left if l == lit else x) for l, x in c.terms if l != lit or left], degree)


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
    """Scale every weight and the degree by ``k >= 1``.

    The ``multiply`` rule a trace step replays, as recorded by the
    multiply-and-weaken reduction; :func:`cancel` scales its inputs itself.
    """
    if k < 1:
        raise ValueError(f"multiplier must be >= 1, got {k}")
    if k == 1:
        return c
    return Constraint([(lit, k * w) for lit, w in c.terms], k * c.degree)
