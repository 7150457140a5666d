"""The CDCL search loop over pseudo-Boolean constraints.

Decisions follow an activity heuristic with phase saving, propagation is
counter-based, and conflicts are analyzed by walking the trail backwards and
cancelling the current conflict constraint with the reason of each propagated
literal whose negation it contains, using the configured reduction strategy.
The walk stops as soon as the constraint asserts at some lower level; the
constraint is then learned, the solver backjumps to the smallest such level
and the learned constraint propagates there.  A conflict that persists at the
root level proves unsatisfiability.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from .analysis import STRATEGIES, STRATEGY_IDS, Accumulator, AnalysisError, resolve_step, settle
from .core import Constraint
from .opb import ParsedInstance, SAT, UNKNOWN, UNSAT
from .propagation import PropagationEngine
from .trace import DerivationTrace

#: The decision heap is rebuilt once stale entries make it this many times
#: larger than the number of variables.
_HEAP_SLACK_FACTOR = 4

#: Variable-activity decay: the bump increment is divided by it after every conflict.
VAR_DECAY = 0.95

#: Conflicts before the i-th restart: at least this many times the i-th Luby term.
RESTART_BASE = 100

#: Learned constraints between two reductions of the learned database.
REDUCE_INTERVAL = 2000


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


@dataclass(frozen=True)
class SolverConfig:
    strategy: str = "partial-rs-both"
    conflict_budget: int | None = None
    time_budget: float | None = None
    emit_trace: bool = False

    def __post_init__(self):
        if self.conflict_budget is not None and self.conflict_budget < 0:
            raise ValueError("conflict budget must be >= 0")
        # Written so that NaN, whose deadline would never expire, fails too.
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError("time budget must be >= 0")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r} (choose from {', '.join(STRATEGY_IDS)})")


@dataclass
class SolverStats:
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    max_coeff_bits: int = 0
    fallbacks: int = 0
    seconds: float = 0.0

    @property
    def assignments_per_second(self) -> float:
        """Propagations plus decisions per wall-clock second."""
        if self.seconds <= 0:
            return 0.0
        return (self.propagations + self.decisions) / self.seconds


@dataclass
class SolverResult:
    status: str
    model: dict[int, bool] | None = None
    stats: SolverStats = field(default_factory=SolverStats)
    trace: DerivationTrace | None = None


class Solver:
    """One single-threaded solving run over a parsed instance."""

    def __init__(self, instance: ParsedInstance, config: SolverConfig | None = None):
        self.instance = instance
        self.config = config or SolverConfig()
        self.nvars = instance.nvars
        self.engine = PropagationEngine(self.nvars)
        self.stats = SolverStats()
        self.trace = DerivationTrace(len(instance.constraints)) if self.config.emit_trace else None
        self._trace_ids: list[int | None] = []  # engine cid -> trace id, None untraced
        self._activity: list[float] = [0.0] * (self.nvars + 1)  # variable -> activity; slot 0 unused
        self._var_inc = 1.0
        # Lazy max-heap of (-activity, var) over the decision candidates.
        # Every unassigned variable has an entry keyed by its current
        # activity; entries of assigned variables are dropped when they
        # reach the top, and outdated keys never reach it (decide_literal
        # says why).  All activities start equal, so the variables in index
        # order already form a heap.
        self._heap: list[tuple[float, int]] = [(-0.0, v) for v in range(1, self.nvars + 1)]
        self._phase: list[int] = [0] * (self.nvars + 1)  # variable -> last literal, 0 for none (-v would allocate)
        self._cla_activity: dict[int, float] = {}  # live learned cid -> activity
        self._cla_inc = 1.0
        self._restart_at = RESTART_BASE * luby(1)  # the conflict count at which the next restart is due
        self._deadline: float | None = None
        self._pairs: dict[int, tuple[int, int]] = {}  # lit -> last learned (lit, weight) term
        for cid, c in enumerate(instance.constraints):
            self.engine.add_constraint(c)
            self._trace_ids.append(None if self.trace is None else cid + 1)
            self._note_coefficients(c)

    # -- public entry ---------------------------------------------------------

    def solve(self) -> SolverResult:
        started = time.monotonic()
        if self.config.time_budget is not None:
            self._deadline = started + self.config.time_budget
        result = self._search()
        self.stats.propagations = self.engine.propagations
        self.stats.seconds = time.monotonic() - started
        result.stats = self.stats
        result.trace = self.trace
        return result

    # -- main loop --------------------------------------------------------------

    def _search(self) -> SolverResult:
        while True:
            conflict = self.engine.propagate_all()
            if conflict is not None:
                # Only budget 0 stops here: any other stops after learning its last conflict.
                if self.stats.conflicts == self.config.conflict_budget:
                    return SolverResult(UNKNOWN)
                self.stats.conflicts += 1
                analyzed = self.analyze_conflict(conflict)
                if analyzed is None:
                    return SolverResult(UNKNOWN)
                learned, trace_id, level, slack = analyzed
                if level is None:
                    if self.trace is not None:
                        self.trace.final = trace_id
                    return SolverResult(UNSAT)
                self._backjump_and_learn(learned, trace_id, level, slack)
                self._decay_activities()
                if self._out_of_time():
                    return SolverResult(UNKNOWN)
                if (
                    self.config.conflict_budget is not None
                    and self.stats.conflicts >= self.config.conflict_budget
                ):
                    return SolverResult(UNKNOWN)
                continue
            if len(self.engine.trail) == self.nvars:
                return SolverResult(SAT, model=self._checked_model())
            if self.stats.conflicts >= self._restart_at:
                self.stats.restarts += 1
                self._restart_at = self.stats.conflicts + RESTART_BASE * luby(self.stats.restarts + 1)
                if self.engine.current_level > 0:
                    self._record_phases(self.engine.backjump_to(0))
            if self._out_of_time():
                return SolverResult(UNKNOWN)
            self._decide()

    def _out_of_time(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline

    # -- decisions and heuristics ------------------------------------------------

    def decide_literal(self) -> int:
        """The next decision: unassigned variable of maximal activity, cached phase.

        Ties fall to the lowest index; fresh variables start at phase false.
        An outdated entry never reaches the top while its variable is free:
        activities only grow between heap rebuilds, and every bump of a free
        variable and every unassignment pushes the variable's current key,
        so that entry sits above all of the variable's outdated ones.
        """
        heap = self._heap
        index = self.engine.index
        while heap:
            v = heap[0][1]
            if index[v] is not None:
                heapq.heappop(heap)
            else:
                return self._phase[v] or -v
        raise ValueError("all variables are assigned")

    def _decide(self) -> None:
        lit = self.decide_literal()
        self.stats.decisions += 1
        self.engine.assume(lit)

    def bump_variables(self, variables) -> None:
        """Raise each variable's activity by the increment, in the order given, and push each
        unassigned one under its new activity; :meth:`_decay_activities` does every rescale."""
        activity, heap = self._activity, self._heap
        index = self.engine.index
        inc = self._var_inc
        for v in variables:
            activity[v] += inc
            if index[v] is None:
                heapq.heappush(heap, (-activity[v], v))
        if len(heap) > _HEAP_SLACK_FACTOR * self.nvars + 16:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Rebuild the decision heap from the activities of the unassigned variables."""
        activity, index = self._activity, self.engine.index
        self._heap = [(-activity[v], v) for v in range(1, self.nvars + 1) if index[v] is None]
        heapq.heapify(self._heap)

    def _decay_activities(self) -> None:
        """Grow both increments.  Past 1e100, scale the variable activities and increment by 1e-100 and
        rebuild the heap; past 1e20, the learned ones by 1e-20.  An activity stays a bounded multiple
        of its bound between two rescales, so none overflows."""
        self._var_inc /= VAR_DECAY
        if self._var_inc > 1e100:
            self._activity[:] = [a * 1e-100 for a in self._activity]
            self._var_inc *= 1e-100
            self._rebuild_heap()
        self._cla_inc /= 0.999
        if self._cla_inc > 1e20:
            activity = self._cla_activity
            for cid in activity:
                activity[cid] *= 1e-20
            self._cla_inc *= 1e-20

    def _bump_constraint(self, cid: int) -> None:
        if cid in self._cla_activity:
            self._cla_activity[cid] += self._cla_inc

    def _record_phases(self, popped: list[int]) -> None:
        """Save the unassigned literals as phases and make their variables candidates again."""
        phase, heap, activity = self._phase, self._heap, self._activity
        for lit in popped:
            v = abs(lit)
            phase[v] = lit
            heapq.heappush(heap, (-activity[v], v))
        if len(heap) > _HEAP_SLACK_FACTOR * self.nvars + 16:
            self._rebuild_heap()

    # -- conflict analysis -------------------------------------------------------

    def analyze_conflict(self, conflict_cid: int):
        """Walk the trail backwards, cancelling until the constraint asserts.

        Returns (constraint, trace id, backjump level, slack at that level),
        the trace id None untraced; the level and slack are None when the
        constraint conflicts at the root.  Returns None when the time budget runs
        out during the walk: the deadline, read once, is checked after every
        resolve step, and nothing is learned then.  The search decides only
        at a propagation fixpoint, so the conflicting constraint cannot
        assert below its level before a resolve step.  The walk stops at level 0;
        the root exit after it is the one way to a root conflict, and a slack there
        that is not negative means propagation was incomplete and raises :class:`AnalysisError`.
        The conflict side and each step's reason are :class:`Accumulator`
        values that the step rewrites in place; a constraint is built from
        the conflict side only when it is learned or proves a root conflict.
        Each resolve step and the :func:`settle` pass after it, which saturates
        the conflict side, prices its slack at the step (it must be negative)
        and finds its assertion level, read the engine's record at the pivot's
        trail index ``p`` in :mod:`pbsolve.analysis`.  The slack starts as the
        engine's slack of the conflicting constraint and rises only when the
        walk skips an entry whose negation the conflict side holds, by that
        literal's weight.
        """
        engine = self.engine
        strategy = self.config.strategy
        self._bump_constraint(conflict_cid)
        start = engine.constraints[conflict_cid]
        assert start is not None
        trace_ids = self._trace_ids
        cur = Accumulator(start, self.trace, trace_ids[conflict_cid])
        cur_slack = engine.slacks[conflict_cid]
        deadline = self._deadline
        trail, levels, reasons, index = engine.trail, engine.levels, engine.reasons, engine.index
        for p in range(len(trail) - 1, -1, -1):
            if levels[p] == 0:
                break
            pivot = trail[p]
            cid = reasons[p]
            if cid is None or -pivot not in cur.weights:
                # Unassigning the pivot unfalsifies its negation, if present.
                cur_slack += cur.weights.get(-pivot, 0)
            else:
                reason = Accumulator(engine.constraints[cid], self.trace, trace_ids[cid])
                self._bump_constraint(cid)
                self.bump_variables({*map(abs, cur.weights), *map(abs, reason.weights)})
                if resolve_step(cur, reason, pivot, index, p, strategy, cur_slack):
                    self.stats.fallbacks += 1
                # The engine is frozen during analysis: only a step moves the level.
                cur_slack, level, level_slack = settle(cur, engine, p)
                if cur_slack >= 0:
                    text = cur.constraint().to_text()
                    raise AnalysisError(f"resolve_step produced a non-conflicting constraint with {strategy}: {text}")
                if deadline is not None and time.monotonic() > deadline:
                    return None
                if level is not None:
                    return cur.constraint(self._pairs), cur.id, level, level_slack
        # Only root-level assignments remain, and the constraint must
        # still be conflicting under them.
        if cur_slack >= 0:
            raise AnalysisError(f"root exit with slack {cur_slack}: propagation was incomplete")
        return cur.constraint(self._pairs), cur.id, None, None

    # -- learning ----------------------------------------------------------------

    def _backjump_and_learn(self, learned: Constraint, trace_id: int | None, level: int, slack: int) -> None:
        """Backjump to ``level`` and store ``learned`` with ``slack``, the slack its analysis
        found there; it is always new: analysis resolves at least once."""
        self._record_phases(self.engine.backjump_to(level))
        cid = self.engine.add_constraint(learned, slack)
        self._trace_ids.append(trace_id)
        self._cla_activity[cid] = self._cla_inc
        self.stats.learned += 1
        self._note_coefficients(learned)
        if self.trace is not None:
            self.trace.learned.append((trace_id, learned))
        if self.stats.learned % REDUCE_INTERVAL == 0:
            self.reduce_db()

    def _note_coefficients(self, c: Constraint) -> None:
        bits = max(c.degree.bit_length(), c.max_weight.bit_length())
        if bits > self.stats.max_coeff_bits:
            self.stats.max_coeff_bits = bits

    def reduce_db(self) -> None:
        """Drop the lowest-activity half of learned constraints.

        Constraints currently serving as the reason of a trail literal are
        kept regardless of activity.
        """
        activity = self._cla_activity
        protected = set(self.engine.reasons)
        by_activity = sorted(
            (cid for cid in activity if cid not in protected),
            key=lambda cid: (activity[cid], cid),
        )
        dropped = by_activity[: len(activity) // 2]
        self.engine.remove_constraints(dropped)
        for cid in dropped:
            del activity[cid]

    # -- results ------------------------------------------------------------------

    def _checked_model(self) -> dict[int, bool]:
        index = self.engine.index
        model = {v: index[v] is not None and index[v] >= 0 for v in range(1, self.nvars + 1)}
        for c in self.instance.constraints:
            if not c.satisfied_by(model):
                raise AnalysisSoundnessError(f"model does not satisfy {c.to_text()}")
        return model


class AnalysisSoundnessError(RuntimeError):
    """A returned model failed the final verification (should be unreachable)."""


def solve(instance: ParsedInstance, config: SolverConfig | None = None) -> SolverResult:
    """Convenience wrapper: run one solver instance to completion."""
    return Solver(instance, config).solve()
