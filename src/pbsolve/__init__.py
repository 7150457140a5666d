"""pbsolve: a pseudo-Boolean CDCL solver library.

The package is layered bottom-up: :mod:`pbsolve.core` holds normalized
constraints and the inference rules, :mod:`pbsolve.propagation` the trail and
incremental slacks, :mod:`pbsolve.analysis` the conflict-analysis reduction
strategies, :mod:`pbsolve.solver` the search loop, and :mod:`pbsolve.opb`,
:mod:`pbsolve.trace`, :mod:`pbsolve.generators`, :mod:`pbsolve.bench`,
:mod:`pbsolve.cli` the input/output and benchmarking surface.

The package exports the user API: constraints, OPB input and output, the
generators, the solver, and the trace with its checker.  From
:mod:`pbsolve.core` that is only :class:`Constraint`, :func:`normalize` and
:func:`slack`.  Everything else stays in its own module: the rule functions
(``cancel``, ``weaken``, ...) at ``pbsolve.core.<rule>``, the trace
checker's arithmetic (:data:`pbsolve.trace.RULES` maps each trace rule
name to one of them and to its input and parameter counts); the
accumulator, the solver's own copy of the rules, and the reductions in
:mod:`pbsolve.analysis`; the propagation engine in
:mod:`pbsolve.propagation`; and the matrix runner in :mod:`pbsolve.bench`.
"""

from .analysis import STRATEGY_IDS
from .core import Constraint, normalize, slack
from .generators import balanced_instance, php_instance
from .opb import (
    OpbSyntaxError,
    ParsedInstance,
    SAT,
    UNKNOWN,
    UNSAT,
    format_solution,
    parse_opb,
    write_opb,
)
from .solver import Solver, SolverConfig, SolverResult, solve
from .trace import DerivationTrace, verify_trace

__version__ = "0.1.0"

__all__ = [
    "Constraint",
    "DerivationTrace",
    "OpbSyntaxError",
    "ParsedInstance",
    "SAT",
    "STRATEGY_IDS",
    "Solver",
    "SolverConfig",
    "SolverResult",
    "UNKNOWN",
    "UNSAT",
    "balanced_instance",
    "format_solution",
    "normalize",
    "parse_opb",
    "php_instance",
    "slack",
    "solve",
    "verify_trace",
    "write_opb",
]
