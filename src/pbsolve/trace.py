"""Recording, serializing and replay-checking derivations.

Ids 1 to n name the instance's n constraints in order, and the k-th step's
output is id n + k: a step is named by its position, as DRAT and VeriPB
proofs name each derived constraint.  A step is written as its rule and
arguments only, as VeriPB's ``pol`` steps are; a learned constraint's text
is written once, on its ``l`` line.  An independent checker can validate a
run without trusting the solver: it recomputes every step from the
instance's rows with :mod:`pbsolve.core`'s rule functions, not with the
solver's accumulator, compares each learned constraint with its replay, and
for an unsatisfiability claim a plain root-level propagation over the
instance plus the learned constraints must reach a conflict.

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
``~x3``).  :data:`RULES` fixes how many of each a rule takes.  A ``weaken``
step names one input and one or more literals, ``s weaken <id> <lit>
<lit> ...``, and the checker weakens them in turn: the solver writes a run
of weakenings of one constraint as one step.  A trace has at most one ``i``
and one ``f`` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable

from .core import Constraint, cancel, divide, multiply, partial_weaken, saturate, weaken
from .opb import ParsedInstance

#: Every rule a step may name: rule -> (its :mod:`pbsolve.core` function,
#: number of input ids, number of integer parameters), None for one or more.
RULES = {
    "cancel": (cancel, 2, 1),
    "weaken": (weaken, 1, None),
    "pweaken": (partial_weaken, 1, 2),
    "saturate": (saturate, 1, 0),
    "divide": (divide, 1, 1),
    "multiply": (multiply, 1, 1),
}


def _rule(rule: str, n_args: int) -> tuple[Callable[..., int], int]:
    """A step's rule function and the number of input ids that lead its
    ``n_args`` arguments, by one :data:`RULES` lookup.

    Raises ValueError for an unknown rule or a wrong argument count.
    """
    entry = RULES.get(rule)
    if entry is None:
        raise ValueError(f"unknown rule {rule!r}")
    apply, n_inputs, n_params = entry
    if n_params is None:
        if n_args <= n_inputs:
            raise ValueError(f"{rule} takes at least {n_inputs + 1} arguments, got {n_args}")
    elif n_args != n_inputs + n_params:
        raise ValueError(f"{rule} takes {n_inputs + n_params} arguments, got {n_args}")
    return apply, n_inputs


class DerivationTrace:
    """Accumulates rule steps, learned constraints and the final conflict id.

    Ids 1 to ``inputs`` name the instance's constraints in order, and the
    k-th step's output is id ``inputs + k``, which :meth:`record` returns;
    the caller keeps each id beside what it names.  ``steps`` holds each
    step as a ``(rule, args)`` pair, as the file writes it; a step refers to
    its inputs by id and holds no output, so recording builds nothing.  ``learned``
    holds ``(id, constraint)`` pairs, which the search appends, and
    ``final`` an id, which it sets.
    """

    def __init__(self, inputs: int):
        self.inputs = inputs
        self.steps: list[tuple[str, tuple[int, ...]]] = []
        self.learned: list[tuple[int, Constraint]] = []
        self.final: int | None = None
        self.notes: list[str] = []

    def record(self, rule: str, args: tuple[int, ...]) -> int:
        """Store one rule application; returns the id of its output.

        ``args`` are the input ids, then the parameters, as a step writes them.
        """
        self.steps.append((rule, args))
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
                    _rule(rule, len(params))
                    trace.steps.append((rule, tuple(map(int, params))))
                elif kind == "l":
                    ident, sep, ctext = rest.partition(" : ")
                    if not sep:
                        raise ValueError("a learned id without its constraint")
                    trace.learned.append((int(ident), Constraint.from_text(ctext)))
                elif kind == "f":
                    if trace.final is not None:
                        raise ValueError("a second final record")
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
    :func:`_rule`, as :meth:`DerivationTrace.read` does), references only
    earlier ids and replays without error through its :data:`RULES`
    function, its output taking the next id; every learned id was derived
    and its constraint equals the replay; and, when a final conflict is
    declared, root-level propagation over the instance plus learned
    constraints yields a conflict.

    Each id's value is a ``(weights, degree)`` pair, kept only while a later
    record needs it.  One pass first finds each id's last step as an input;
    the ids that ``learned`` and ``final`` name are kept to the end.  A step
    at its first input's last use rewrites that dict in place, and any
    other step a copy; a ``cancel``'s second input, read only, is released
    after its last use.  So the checker holds the live derivation (rows,
    learned constraints, open chains), not every value of the proof.
    """
    expected = instance.constraints
    if trace.inputs != len(expected):
        return TraceCheck(f"input count mismatch: trace has {trace.inputs}, instance has {len(expected)}")
    steps = trace.steps
    last = {}  # id -> the last step naming it as an input
    for index, (rule, args) in enumerate(steps):
        for ref in args[: RULES.get(rule, (None, 0))[1]]:
            last[ref] = index
    for i in (*(i for i, _ in trace.learned), trace.final):
        last[i] = len(steps)
    known = [None, *((dict(c.terms), c.degree) for c in expected)]  # by id: every lookup checks 0 < id
    for index, (rule, args) in enumerate(steps):
        try:
            apply, n_inputs = _rule(rule, len(args))
        except ValueError as exc:
            return TraceCheck(f"step {index}: {exc}", index)
        for ref in args[:n_inputs]:
            if not 0 < ref < len(known):
                return TraceCheck(f"step {index}: reference to unknown id {ref}", index)
        # cancel, the one two-input rule, only reads its second input.
        first, read = args[0], args[1:n_inputs]
        params = args[1:] if n_inputs == 1 else (known[args[1]], *args[2:])
        w, d = known[first]
        if last[first] == index and first not in read:
            known[first] = None
        else:
            w = dict(w)
        try:
            d = apply(w, d, *params)
            if d < 1:
                raise ValueError(f"degree must be >= 1, got {d}")
        except ValueError as exc:
            return TraceCheck(f"step {index}: replay error: {exc}", index)
        for ref in read:
            if last[ref] == index:
                known[ref] = None
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

    Independent of the solver's engine and of its slack pricing: each pass
    recomputes every slack over the set of true literals and makes true every
    unfalsified literal whose weight exceeds it, until a pass adds nothing.
    """
    rho: set[int] = set()
    size = -1
    while size != len(rho):
        size = len(rho)
        for c in constraints:
            s = -c.degree
            for lit, w in c.terms:
                if -lit not in rho:
                    s += w
            if s < 0:
                return True
            if s < c.max_weight:
                rho.update(lit for lit, w in c.terms if w > s and -lit not in rho)
    return False
