"""Recording, serializing and replay-checking derivations.

Ids 1 to n name the instance's n constraints in order, and the k-th step's
output is id n + k: a step is named by its position, as DRAT and VeriPB
proofs name each derived constraint.  Each step replays bit-exactly from its
inputs and parameters, so an independent checker can validate a run without
trusting the solver: it recomputes every step from the instance's rows, and
for an unsatisfiability claim a plain root-level propagation over the
instance plus the learned constraints must reach a conflict.

The file format is line-oriented text:

    * free-form comment
    i <n>
    s <rule> <args...> : <constraint>
    l <id>
    f <id>

with n the instance's constraint count, constraints written as
``<weight> <literal>`` pairs followed by ``>= <degree>`` and literals spelled
``xK`` / ``~xK``.  A step's arguments are integers: its input ids, then its
parameters (a literal parameter is the signed literal, e.g. ``-3`` for
``~x3``).  :data:`RULES` fixes how many of each a rule takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, NamedTuple

from . import core
from .core import Constraint, format_constraint
from .opb import ParsedInstance

#: Every rule a step may name: rule -> (function in :mod:`pbsolve.core`,
#: number of input ids, number of integer parameters).
RULES = {
    "cancel": (core.cancel, 2, 1),
    "weaken": (core.weaken, 1, 1),
    "pweaken": (core.partial_weaken, 1, 2),
    "saturate": (core.saturate, 1, 0),
    "divide": (core.divide, 1, 1),
    "multiply": (core.multiply, 1, 1),
}


class RuleStep(NamedTuple):
    """One replayable rule application; its id is its position (see :class:`DerivationTrace`).

    The output is held as its term tuple (ascending variable order) and degree, valid
    when read and unvalidated when recorded: :func:`verify_trace` compares both with the replay.
    """

    rule: str
    args: tuple[int, ...]  # input ids, then parameters
    terms: tuple[tuple[int, int], ...]
    degree: int


def _split_args(rule: str, n_args: int) -> int:
    """The number of input ids that lead a step's ``n_args`` arguments, by :data:`RULES`.

    Raises ValueError for an unknown rule or a wrong argument count.
    """
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    _, n_inputs, n_params = RULES[rule]
    if n_args != n_inputs + n_params:
        raise ValueError(f"{rule} takes {n_inputs + n_params} arguments, got {n_args}")
    return n_inputs


class DerivationTrace:
    """Accumulates rule steps, learned ids and the final conflict id.

    Ids 1 to ``inputs`` name the instance's constraints in order, and the
    k-th step's output is id ``inputs + k``, which :meth:`record` returns;
    the caller keeps each id beside what it names.  A step refers to its inputs
    by id and holds its output as a term tuple and degree, so recording
    builds no constraint.  ``learned`` and ``final`` are ids too, which the
    search appends and sets itself.
    """

    def __init__(self, inputs: int):
        self.inputs = inputs
        self.steps: list[RuleStep] = []
        self.learned: list[int] = []
        self.final: int | None = None
        self.notes: list[str] = []

    def record(
        self,
        rule: str,
        args: tuple[int, ...],
        terms: tuple[tuple[int, int], ...],
        degree: int,
    ) -> int:
        """Store one rule application; returns the id of its output.

        ``args`` are the input ids, then the parameters, as a step writes them.
        """
        self.steps.append(RuleStep(rule, args, terms, degree))
        return self.inputs + len(self.steps)

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- serialization -----------------------------------------------------

    def write(self, stream: IO[str]) -> None:
        stream.writelines([f"* {text}\n" for text in self.notes])
        stream.write(f"i {self.inputs}\n")
        stream.writelines(
            f"s {rule} {' '.join(map(str, args))} : {format_constraint(terms, degree)}\n"
            for rule, args, terms, degree in self.steps
        )
        stream.writelines([f"l {i}\n" for i in self.learned])
        if self.final is not None:
            stream.write(f"f {self.final}\n")

    def write_file(self, path: str | Path) -> None:
        with open(path, "w", encoding="ascii") as f:
            self.write(f)

    @classmethod
    def read(cls, lines: Iterable[str]) -> "DerivationTrace":
        """Parse trace text.  Every constraint is read by :func:`~pbsolve.core.read_terms`: text
        as :meth:`write` spells it is stored as it stands, other text is checked and sorted."""
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
                    head, _, ctext = rest.partition(" : ")
                    rule, *params = head.split() or [""]
                    _split_args(rule, len(params))
                    trace.steps.append(RuleStep(rule, tuple(map(int, params)), *core.read_terms(ctext)))
                elif kind == "l":
                    trace.learned.append(int(rest))
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
    only earlier ids and replays bit-exactly through :data:`RULES`, its
    output taking the next id; and, when a final conflict is declared,
    root-level propagation over the instance plus learned constraints
    yields a conflict.
    """
    expected = instance.constraints
    if trace.inputs != len(expected):
        return TraceCheck(f"input count mismatch: trace has {trace.inputs}, instance has {len(expected)}")
    known = [None, *expected]  # by id: every lookup checks 0 < id, as -1 would index

    for index, (rule, args, terms, degree) in enumerate(trace.steps):
        try:
            n_inputs = _split_args(rule, len(args))
        except ValueError as exc:
            return TraceCheck(f"step {index}: {exc}", index)
        inputs = args[:n_inputs]
        for ref_id in inputs:
            if not 0 < ref_id < len(known):
                return TraceCheck(f"step {index}: reference to unknown id {ref_id}", index)
        try:
            result = RULES[rule][0](*map(known.__getitem__, inputs), *args[n_inputs:])
        except ValueError as exc:
            return TraceCheck(f"step {index}: replay error: {exc}", index)
        if result.terms != terms or result.degree != degree:
            return TraceCheck(f"step {index}: replay mismatch for id {len(known)}", index)
        known.append(result)

    for i in trace.learned:
        if not 0 < i < len(known):
            return TraceCheck(f"learned id {i} was never derived", len(trace.steps))

    if trace.final is not None:
        if not 0 < trace.final < len(known):
            return TraceCheck(f"final id {trace.final} was never derived", len(trace.steps))
        if not _root_conflict([*expected, *(known[i] for i in trace.learned)]):
            return TraceCheck(
                "unsatisfiability claim not confirmed by root-level propagation",
                len(trace.steps),
            )
    return TraceCheck(None, len(trace.steps))


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
            s = core.slack(c, rho)
            if s < 0:
                return True
            if s < c.max_weight:
                rho.update(lit for lit, w in c.terms if w > s and -lit not in rho)
    return False
