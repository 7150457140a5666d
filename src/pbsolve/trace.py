"""Recording, serializing and replay-checking derivations.

Ids 1 to n name the instance's n constraints in order, and the k-th step's
output is id n + k: a step is named by its position, as DRAT and VeriPB
proofs name each derived constraint.  A step is written as its rule and
arguments only, as VeriPB's ``pol`` steps are; a learned constraint's text
is written once, on its ``l`` line.  An independent checker can validate a
run without trusting the solver: it recomputes every step from the
instance's rows with its own arithmetic, compares each learned constraint
with its replay, and for an unsatisfiability claim a plain root-level
propagation over the instance plus the learned constraints must reach a
conflict.

The file format is line-oriented text:

    * free-form comment
    i <n>
    s <rule> <args...>
    l <id> : <constraint>
    f <id>

with n the instance's constraint count, constraints written as
``<weight> <literal>`` pairs followed by ``>= <degree>`` and literals spelled
``xK`` / ``~xK``.  A step's arguments are integers: its input ids, then its
parameters (a literal parameter is the signed literal, e.g. ``-3`` for
``~x3``).  :data:`RULES` fixes how many of each a rule takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from .core import Constraint, lit_name, slack
from .opb import ParsedInstance

#: Every rule a step may name: rule -> (number of input ids, number of
#: integer parameters).
RULES = {
    "cancel": (2, 1),
    "weaken": (1, 1),
    "pweaken": (1, 2),
    "saturate": (1, 0),
    "divide": (1, 1),
    "multiply": (1, 1),
}


class RuleStep(NamedTuple):
    """One replayable rule application; its id is its position (see :class:`DerivationTrace`)."""

    rule: str
    args: tuple[int, ...]  # input ids, then parameters


def _split_args(rule: str, n_args: int) -> int:
    """The number of input ids that lead a step's ``n_args`` arguments, by :data:`RULES`.

    Raises ValueError for an unknown rule or a wrong argument count.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    n_inputs, n_params = RULES[rule]
    if n_args != n_inputs + n_params:
        raise ValueError(f"{rule} takes {n_inputs + n_params} arguments, got {n_args}")
    return n_inputs


class DerivationTrace:
    """Accumulates rule steps, learned constraints and the final conflict id.

    Ids 1 to ``inputs`` name the instance's constraints in order, and the
    k-th step's output is id ``inputs + k``, which :meth:`record` returns;
    the caller keeps each id beside what it names.  A step refers to its inputs
    by id and holds no output, so recording builds nothing.  ``learned``
    holds ``(id, constraint)`` pairs, which the search appends, and
    ``final`` an id, which it sets.
    """

    def __init__(self, inputs: int):
        self.inputs = inputs
        self.steps: list[RuleStep] = []
        self.learned: list[tuple[int, Constraint]] = []
        self.final: int | None = None
        self.notes: list[str] = []

    def record(self, rule: str, args: tuple[int, ...]) -> int:
        """Store one rule application; returns the id of its output.

        ``args`` are the input ids, then the parameters, as a step writes them.
        """
        self.steps.append(RuleStep(rule, args))
        return self.inputs + len(self.steps)

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- serialization -----------------------------------------------------

    def write(self, stream: IO[str]) -> None:
        stream.writelines([f"* {text}\n" for text in self.notes])
        stream.write(f"i {self.inputs}\n")
        stream.writelines([f"s {rule} {' '.join(map(str, args))}\n" for rule, args in self.steps])
        stream.writelines([f"l {i} : {c.to_text()}\n" for i, c in self.learned])
        if self.final is not None:
            stream.write(f"f {self.final}\n")

    def write_file(self, path: str | Path) -> None:
        with open(path, "w", encoding="ascii") as f:
            self.write(f)

    @classmethod
    def read(cls, lines: Iterable[str]) -> "DerivationTrace":
        """Parse trace text; a learned constraint is read by :meth:`Constraint.from_text`."""
        trace = cls(0)
        counted = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("*"):
                continue
            kind, _, rest = line.partition(" ")
            try:
                if kind == "i":
                    if counted:
                        raise ValueError("a second input count")
                    trace.inputs = int(rest)
                    counted = True
                elif kind == "s":
                    rule, *params = rest.split() or [""]
                    _split_args(rule, len(params))
                    trace.steps.append(RuleStep(rule, tuple(map(int, params))))
                elif kind == "l":
                    ident, sep, ctext = rest.partition(" : ")
                    if not sep:
                        raise ValueError("a learned id without its constraint")
                    trace.learned.append((int(ident), Constraint.from_text(ctext)))
                elif kind == "f":
                    trace.final = int(rest)
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except ValueError as exc:
                raise ValueError(f"trace line {lineno}: {exc}") from exc
        return trace

    @classmethod
    def read_file(cls, path: str | Path) -> "DerivationTrace":
        with open(path, "r", encoding="ascii") as f:
            return cls.read(f)


# -- the checker's arithmetic ---------------------------------------------------
#
# Each rule rewrites its first input's ``{literal: weight}`` dict, a copy the
# checker owns, and returns the new degree; a later input is a
# ``(weights, degree)`` pair it only reads.  Every case the rule does not
# define raises ValueError.


def _cancel(w: dict[int, int], d: int, other: tuple[dict[int, int], int], var: int) -> int:
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


def _pweaken(w: dict[int, int], d: int, lit: int, eps: int) -> int:
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


def _weaken(w: dict[int, int], d: int, lit: int) -> int:
    return _pweaken(w, d, lit, w.get(lit))


def _saturate(w: dict[int, int], d: int) -> int:
    for l, x in w.items():
        if x > d:
            w[l] = d
    return d


def _divide(w: dict[int, int], d: int, r: int) -> int:
    if r < 1:
        raise ValueError(f"divisor must be >= 1, got {r}")
    for l, x in w.items():
        w[l] = -(-x // r)
    return -(-d // r)


def _multiply(w: dict[int, int], d: int, k: int) -> int:
    if k < 1:
        raise ValueError(f"multiplier must be >= 1, got {k}")
    for l, x in w.items():
        w[l] = k * x
    return k * d


_REPLAY = {
    "cancel": _cancel,
    "weaken": _weaken,
    "pweaken": _pweaken,
    "saturate": _saturate,
    "divide": _divide,
    "multiply": _multiply,
}


@dataclass
class TraceCheck:
    """Outcome of a replay verification; truthy iff there is no error."""

    error: str | None = None
    steps_checked: int = 0

    def __bool__(self) -> bool:
        return self.error is None


def verify_trace(instance: ParsedInstance, trace: DerivationTrace) -> TraceCheck:
    """Replay every recorded step and validate an unsatisfiability claim.

    Checks, in order: the trace counts the instance's n constraints, which ids
    1 to n name; every step has its rule's argument count (checked by
    :func:`_split_args`, as :meth:`DerivationTrace.read` does), references
    only earlier ids and replays without error, its output taking the next
    id; every learned id was derived and its constraint equals the replay;
    and, when a final conflict is declared, root-level propagation over the
    instance plus learned constraints yields a conflict.

    Each id's value is a ``(weights, degree)`` pair, and a step rewrites a
    copy of its first input's dict, so every id keeps its value.
    """
    expected = instance.constraints
    if trace.inputs != len(expected):
        return TraceCheck(f"input count mismatch: trace has {trace.inputs}, instance has {len(expected)}")
    steps = trace.steps
    known = [None, *((dict(c.terms), c.degree) for c in expected)]  # by id: every lookup checks 0 < id
    for index, (rule, args) in enumerate(steps):
        try:
            n_inputs = _split_args(rule, len(args))
        except ValueError as exc:
            return TraceCheck(f"step {index}: {exc}", index)
        for ref in args[:n_inputs]:
            if not 0 < ref < len(known):
                return TraceCheck(f"step {index}: reference to unknown id {ref}", index)
        w, d = known[args[0]]
        w = dict(w)
        try:
            d = _REPLAY[rule](w, d, *map(known.__getitem__, args[1:n_inputs]), *args[n_inputs:])
            if d < 1:
                raise ValueError(f"degree must be >= 1, got {d}")
        except ValueError as exc:
            return TraceCheck(f"step {index}: replay error: {exc}", index)
        known.append((w, d))

    for i, c in trace.learned:
        if not 0 < i < len(known):
            return TraceCheck(f"learned id {i} was never derived", len(steps))
        w, d = known[i]
        if c.degree != d or dict(c.terms) != w:
            return TraceCheck(f"replay mismatch for learned id {i}", len(steps))

    if trace.final is not None:
        if not 0 < trace.final < len(known):
            return TraceCheck(f"final id {trace.final} was never derived", len(steps))
        if not _root_conflict([*expected, *(c for _, c in trace.learned)]):
            return TraceCheck(
                "unsatisfiability claim not confirmed by root-level propagation",
                len(steps),
            )
    return TraceCheck(None, len(steps))


def _root_conflict(constraints: list[Constraint]) -> bool:
    """Whether unit propagation from the empty assignment reaches a conflict.

    Independent of the solver's engine: each pass recomputes every slack over
    the set of true literals and makes true every unfalsified literal whose
    weight exceeds it, until a pass adds nothing.
    """
    rho: set[int] = set()
    size = -1
    while size != len(rho):
        size = len(rho)
        for c in constraints:
            s = slack(c, rho)
            if s < 0:
                return True
            if s < c.max_weight:
                rho.update(lit for lit, w in c.terms if w > s and -lit not in rho)
    return False
