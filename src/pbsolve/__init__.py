"""pbsolve: a pseudo-Boolean CDCL solver library.

The package is layered bottom-up: :mod:`pbsolve.core` holds normalized
constraints and the inference rules, :mod:`pbsolve.propagation` the trail and
incremental slacks, :mod:`pbsolve.analysis` the conflict-analysis reduction
strategies, :mod:`pbsolve.solver` the search loop, and :mod:`pbsolve.opb`,
:mod:`pbsolve.trace`, :mod:`pbsolve.generators`, :mod:`pbsolve.bench`,
:mod:`pbsolve.cli` the input/output and benchmarking surface.

From :mod:`pbsolve.core` the package exports only :class:`Constraint`,
:func:`normalize` and :func:`slack`.  The rule functions (``cancel``,
``weaken``, ...) replay trace steps and stay at ``pbsolve.core.<rule>``;
:data:`pbsolve.trace.RULES` maps each trace rule name to its function.
"""

from .analysis import (
    STRATEGY_IDS,
    Accumulator,
    reduce_genres,
    reduce_multiply_weaken,
    reduce_rs,
    resolve_step,
    weaken_ineffective,
)
from .bench import BenchRecord, run_matrix
from .core import Constraint, normalize, slack
from .generators import php_instance, random_instance
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
from .propagation import PropagationEngine
from .solver import Solver, SolverConfig, SolverResult, solve
from .trace import DerivationTrace, verify_trace

__version__ = "0.1.0"

__all__ = [
    "Accumulator",
    "BenchRecord",
    "Constraint",
    "DerivationTrace",
    "OpbSyntaxError",
    "ParsedInstance",
    "PropagationEngine",
    "SAT",
    "STRATEGY_IDS",
    "Solver",
    "SolverConfig",
    "SolverResult",
    "UNKNOWN",
    "UNSAT",
    "format_solution",
    "normalize",
    "parse_opb",
    "php_instance",
    "random_instance",
    "reduce_genres",
    "reduce_multiply_weaken",
    "reduce_rs",
    "resolve_step",
    "run_matrix",
    "slack",
    "solve",
    "verify_trace",
    "weaken_ineffective",
    "write_opb",
]
