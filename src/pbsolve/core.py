"""Normalized pseudo-Boolean constraints and the cutting-planes inference rules.

A constraint is kept in the normalized form ``sum(w_i * l_i) >= degree`` with
positive integer weights over literals of pairwise distinct variables.
Literals are plain signed integers (``+v`` / ``-v`` for variable index
``v >= 1``): ``-lit`` negates a literal and ``abs(lit)`` is its variable.
A partial assignment is the collection of its true literals.

No assignment satisfies the empty constraint ``>= 1``: it is the one form of
a trivially false constraint.  A trivially true one (degree 0 or below) is
not a constraint at all, so the constructor raises ValueError on it.

The rule functions (``cancel``, ``weaken``, ``partial_weaken``, ``saturate``,
``divide``, ``multiply``) are the trace checker's arithmetic: each rewrites
a ``{literal: weight}`` dict in place and returns the new degree.

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
        """The text form, e.g. ``6 ~x2 4 x5 >= 7``: ``~x2`` is first spelled ``x-2``, then respelled in one pass."""
        return " ".join([f"{w} x{lit}" for lit, w in self.terms]).replace("x-", "~x") + f" >= {self.degree}"

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


#: The signs each relation's ``>=`` parts multiply both sides by.
SIGNS = {">=": (1,), "<=": (-1,), "=": (1, -1)}


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
    The terms fold into one net coefficient per variable for :func:`fold_parts`.
    """
    signs = SIGNS.get(relation)
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
    return fold_parts(sorted(net.items()), signs, rhs)


def fold_parts(fold: Sequence[tuple[int, int]], signs: Sequence[int], rhs: int) -> list[Constraint]:
    """:func:`normalize`'s result for a fold: at most one saturated ``>=`` part per sign.

    ``fold`` holds ``(variable, net coefficient)`` pairs in strictly ascending
    variable order, zero coefficients included; ``signs`` is a :data:`SIGNS` entry.
    """
    constraints = []
    # Each sign gives one ``>=`` part, sign * sum(a * v) >= sign * rhs, built in variable order
    # (the constructor's one-pass path) in one pass that also sums and bounds its weights.
    for sign in signs:
        degree = sign * rhs
        terms, total, most = [], 0, 0
        for v, a in fold:
            a *= sign
            if a < 0:
                v, a = -v, -a
                degree += a
            if a:
                terms.append((v, a))
                total += a
                if a > most:
                    most = a
        if degree <= 0:
            continue
        if total < degree:
            # Even the all-true assignment cannot reach the degree.
            terms, degree = (), 1
        elif most > degree:
            terms = [(lit, min(w, degree)) for lit, w in terms]
        constraints.append(Constraint(terms, degree))
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


# -- the rules, as the trace checker runs them ------------------------------
#
# Each rule rewrites its first input's ``{literal: weight}`` dict, a copy the
# checker owns, and returns the new degree; a later input is a
# ``(weights, degree)`` pair it only reads.  Every case the rule does not
# define raises ValueError.  The solver derives with its own copy of this
# arithmetic, :class:`pbsolve.analysis.Accumulator`, so the checker does not
# reuse the code it checks.


def cancel(w: dict[int, int], d: int, other: tuple[dict[int, int], int], var: int) -> int:
    """Add ``other``, both scaled by the minimal multipliers that eliminate ``var``."""
    w2, d2 = other
    lit = var if var in w else -var
    a, b = w.get(lit), w2.get(-lit)
    if a is None or b is None:
        if a is None or lit not in w2:
            raise ValueError(f"pivot x{var} must occur in both constraints")
        raise ValueError(f"pivot x{var} must occur with opposite polarities")
    common = lcm(a, b)
    mu, nu = common // a, common // b
    if mu != 1:
        for l in w:
            w[l] *= mu
    degree = mu * d + nu * d2
    for l, x in w2.items():
        x *= nu
        opposite = w.get(-l)
        if opposite is None:
            w[l] = w.get(l, 0) + x
        elif opposite > x:
            w[-l] = opposite - x
            degree -= x
        else:
            del w[-l]
            degree -= opposite
            if x > opposite:
                w[l] = x - opposite
    return degree


def partial_weaken(w: dict[int, int], d: int, lit: int, eps: int) -> int:
    x = w.get(lit)
    if x is None:
        raise ValueError(f"literal {lit_name(lit)} is absent")
    if not 0 < eps <= x:
        raise ValueError(f"eps must be in 1..{x}, got {eps}")
    if eps == x:
        del w[lit]
    else:
        w[lit] = x - eps
    return d - eps


def weaken(w: dict[int, int], d: int, *lits: int) -> int:
    """Remove each literal in turn, lowering the degree by its weight: one
    trace step weakens a run of literals."""
    for lit in lits:
        x = w.pop(lit, None)
        if x is None:
            raise ValueError(f"literal {lit_name(lit)} is absent")
        d -= x
    return d


def saturate(w: dict[int, int], d: int) -> int:
    for l, x in w.items():
        if x > d:
            w[l] = d
    return d


def divide(w: dict[int, int], d: int, r: int) -> int:
    if r < 1:
        raise ValueError(f"divisor must be >= 1, got {r}")
    for l, x in w.items():
        w[l] = -(-x // r)
    return -(-d // r)


def multiply(w: dict[int, int], d: int, k: int) -> int:
    if k < 1:
        raise ValueError(f"multiplier must be >= 1, got {k}")
    for l, x in w.items():
        w[l] = k * x
    return k * d
