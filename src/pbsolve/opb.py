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

from .core import SIGNS, Constraint, fold_parts, normalize

_HEADER = re.compile(r"\*\s*#variable=\s*(\d+)\s+#constraint=\s*\d+")
# A token is a run of non-space characters that does not end in ";", or one
# ";": terminators glued to the token before them are tokens of their own.
_TOKEN = re.compile(r"\S*[^\s;]|;")
_INT = re.compile(r"[+-]?\d+$")
_VAR = re.compile(r"x(\d+)$")
# The row spelling pbsolve writes, read by string operations; the token walk reads any other row.
_ROW = re.compile(r"[ \t]*((?:[+-]?[0-9]+[ \t]+x[1-9][0-9]*[ \t]+)*)(>?=)[ \t]+([+-]?[0-9]+)[ \t]*;[ \t]*")


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
        # A constraint's terms are in ascending variable order: its last names its largest.
        used = max((abs(c.terms[-1][0]) for c in self.constraints if c.terms), default=0)
        return max(self.declared_vars, used)


def parse_opb(
    source: str | IO[str],
    *,
    name: str = "",
    allow_objective: bool = False,
) -> ParsedInstance:
    """Parse OPB text (a string or a text stream) into a ParsedInstance.

    Each line is tried once against the row pattern.  A matched row over
    distinct variables is sorted into :func:`pbsolve.core.fold_parts`, the
    builder :func:`normalize` ends in; a matched row that repeats a variable,
    and every row the token walk reads, goes through :func:`normalize`.
    """
    text = source.read() if hasattr(source, "read") else source
    instance = ParsedInstance(name=name)
    declared = None  # the first header's count; a later header-shaped line is a comment
    top = 0  # declared_vars is raised to every index a row names, kept or dropped
    # Rows end at "\n" only, one "\r" before it dropped; other line breaks are blanks.
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        # A row in the pattern's spelling is matched once; blank, comment and
        # objective lines fail the pattern at their first non-blank character.
        if m := _ROW.fullmatch(line):
            numbers = list(map(int, m[1].replace("x", "").split()))
            variables = numbers[1::2]
            if len(set(variables)) == len(variables):
                # Distinct variables: the sorted pairs are the fold normalize would make.
                fold = sorted(zip(variables, numbers[::2]))
                if fold:
                    top = max(top, fold[-1][0])
                instance.constraints += fold_parts(fold, SIGNS[m[2]], int(m[3]))
                continue
            terms, relation, rhs, largest = list(zip(numbers[::2], variables)), m[2], int(m[3]), max(variables)
        elif not (stripped := line.strip()):
            continue
        elif stripped.startswith("*"):
            if declared is None and (m := _HEADER.search(line)):
                declared = int(m.group(1))
            continue
        elif stripped.startswith("min:"):
            if allow_objective:
                print(f"warning: objective on line {lineno} ignored (decision mode)", file=sys.stderr)
                continue
            col = line.index("min:") + 1
            raise OpbSyntaxError("objective lines are not supported (decision problems only)", lineno, col)
        else:
            terms, relation, rhs, largest = _parse_constraint_line(line, lineno)
        top = max(top, largest)
        instance.constraints.extend(normalize(terms, relation, rhs))
    instance.declared_vars = max(declared or 0, top)
    return instance


def _parse_constraint_line(line: str, lineno: int):
    """The token walk: a row's ``(coefficient, index)`` terms, relation, right-hand side and largest index."""
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
    return terms, tokens[i], int(tokens[i + 1]), max([v for _, v in terms], default=0)


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
