"""Reading and writing the OPB input format and the solution-line output.

The accepted grammar is the linear decision fragment used by the PB
competitions: ``*`` comment lines, an optional ``* #variable= N #constraint= M``
header, and constraint lines made of signed integer coefficients over ``xK``
tokens, a ``>=`` or ``=`` relation, an integer right-hand side and a closing
``;``.  Objective (``min:``) lines and nonlinear products are rejected.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import IO

from .core import Constraint, normalize

_HEADER = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*\d+")
# A token is a run of non-space characters that does not end in ";", or one
# ";": terminators glued to the token before them are tokens of their own.
_TOKEN = re.compile(r"\S*[^\s;]|;")
_INT = re.compile(r"[+-]?\d+$")
_VAR = re.compile(r"x(\d+)$")


class OpbSyntaxError(ValueError):
    """Parse failure carrying a 1-based line and column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class ParsedInstance:
    """A parsed OPB file: normalized constraints plus the declared variable count.

    Equality splitting and tautology removal mean the stored constraint count
    may differ from the header's ``#constraint=``, which is not kept.  A line
    that no assignment satisfies is stored as the empty constraint ``>= 1``.
    """

    name: str = ""
    declared_vars: int = 0
    constraints: list[Constraint] = field(default_factory=list)

    @property
    def nvars(self) -> int:
        used = max({abs(lit) for c in self.constraints for lit, _ in c.terms}, default=0)
        return max(self.declared_vars, used)


def parse_opb(
    source: str | IO[str],
    *,
    name: str = "",
    allow_objective: bool = False,
) -> ParsedInstance:
    """Parse OPB text (a string or a text stream) into a ParsedInstance."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    instance = ParsedInstance(name=name)
    top = 0  # declared_vars is raised to every index a row names, kept or dropped
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("*"):
            m = _HEADER.search(line)
            if m:
                instance.declared_vars = int(m.group(1))
            continue
        if stripped.startswith("min:"):
            if allow_objective:
                print(
                    f"warning: objective on line {lineno} ignored (decision mode)",
                    file=sys.stderr,
                )
                continue
            col = line.index("min:") + 1
            raise OpbSyntaxError(
                "objective lines are not supported (decision problems only)",
                lineno,
                col,
            )
        terms, relation, rhs = _parse_constraint_line(line, lineno)
        for _, v in terms:
            if v > top:
                top = v
        instance.constraints.extend(normalize(terms, relation, rhs))
    instance.declared_vars = max(instance.declared_vars, top)
    return instance


def _parse_constraint_line(line: str, lineno: int):
    tokens = _TOKEN.findall(line)
    n = len(tokens)

    def fail(msg: str, k: int):
        # Token k's column, or the row's last non-blank one if it ended early.
        columns = [m.start() + 1 for m in _TOKEN.finditer(line)]
        raise OpbSyntaxError(msg, lineno, columns[k] if k < n else len(line.rstrip()))

    terms: list[tuple[int, int]] = []
    i = 0
    while i < n and tokens[i] not in (">=", "="):
        tok = tokens[i]
        if tok in ("<=", "<", ">"):
            fail(f"relation {tok!r} is not part of the OPB decision format", i)
        if not _INT.match(tok):
            if not _VAR.match(tok):
                fail(f"unexpected token {tok!r}", i)
            if i:  # the token before is the variable of a term
                fail("nonlinear term (two variable tokens in one term)", i)
            fail("variable without a coefficient (nonlinear input?)", i)
        if i + 1 == n:
            fail("coefficient without a variable", i)
        vm = _VAR.match(tokens[i + 1])
        if not vm:
            fail(f"expected a variable token after coefficient, got {tokens[i + 1]!r}", i + 1)
        var = int(vm.group(1))
        if var < 1:
            fail("variable index must be >= 1", i + 1)
        terms.append((int(tok), var))
        i += 2
    if i == n:
        fail("missing relation", n)
    if i + 1 == n:
        fail("missing right-hand side", n)
    if not _INT.match(tokens[i + 1]):
        fail(f"expected integer right-hand side, got {tokens[i + 1]!r}", i + 1)
    if i + 2 == n:
        fail("missing ';' terminator", n)
    if tokens[i + 2] != ";":
        fail(f"expected ';', got {tokens[i + 2]!r}", i + 2)
    if i + 3 < n:
        fail("trailing tokens after ';'", i + 3)
    return terms, tokens[i], int(tokens[i + 1])


def write_opb(instance: ParsedInstance, stream: IO[str]) -> None:
    """Write an instance in OPB form; parse_opb(write_opb(i)) is equivalent to i.

    Negated literals are rewritten as negative coefficients on the positive
    variable with the right-hand side adjusted, which round-trips through
    normalization to the identical canonical constraint.  The empty
    constraint is written as the row ``>= 1 ;``.
    """
    stream.write(f"* #variable= {instance.nvars} #constraint= {len(instance.constraints)}\n")
    for c in instance.constraints:
        parts = []
        rhs = c.degree
        for lit, w in c.terms:
            if lit > 0:
                parts.append(f"+{w} x{lit}")
            else:
                parts.append(f"-{w} x{-lit}")
                rhs -= w
        parts.append(f">= {rhs} ;")
        stream.write(" ".join(parts) + "\n")


SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

_STATUS_WORDS = {SAT: "SATISFIABLE", UNSAT: "UNSATISFIABLE", UNKNOWN: "UNKNOWN"}


def format_solution(
    status: str,
    model: dict[int, bool] | None = None,
    nvars: int = 0,
) -> str:
    """Competition-style solution lines: ``s ...`` plus a ``v`` line for SAT."""
    if status not in _STATUS_WORDS:
        raise ValueError(f"unknown status {status!r}")
    if (model is not None) != (status == SAT):
        raise ValueError("a model must be given exactly when the status is SAT")
    out = f"s {_STATUS_WORDS[status]}"
    if status == SAT:
        assert model is not None
        width = max(nvars, max(model, default=0))
        values = ("x%d" % v if model.get(v, False) else "-x%d" % v for v in range(1, width + 1))
        out += "\nv " + " ".join(values)
    return out
