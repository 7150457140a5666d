"""Conflict analysis: the reduction strategies and the pass after each cancellation.

Each cancellation step during conflict analysis combines the current conflict
constraint with the reason of a propagated literal.  The raw cancellation
does not always keep the result conflicting, so one or both sides are reduced
first.  Both sides are :class:`Accumulator` values that the rules rewrite in
place, and the reductions are functions over them plus the engine's
read-only record of the assignment:

* ``gen-res``            weaken-and-saturate the reason until the scaled-slack
                         sum certifies the conflict is preserved;
* ``rs``                 fully weaken non-falsified literals whose weight is
                         not divisible by the pivot weight, then divide by it
                         (pivot weight becomes 1);
* ``partial-rs``         same, but only shave each weight down to the nearest
                         multiple of the pivot weight before dividing;
* ``weaken-ineffective`` greedily drop literals that play no role in the
                         conflict or propagation, shortening the constraint;
* ``multiply-weaken``    scale the reason and weaken ineffective literals so
                         the pivot weights match after saturation, avoiding
                         LCM coefficient growth.

A strategy's row in :data:`STRATEGIES` names the reduction it applies to
the conflict side and the one it applies to the reason side, or None.
Each reduction takes the accumulator it rewrites, that side's own pivot
literal (``-pivot`` on the conflict, ``pivot`` on the reason), ``index``,
the engine's record (``index[lit]`` is ``t`` when ``lit`` is true at trail
index ``t``, ``~t`` when false, None when free), the pivot's trail index
``p``, and then what it reads of the other side.  The step's assignment is
the trail prefix through ``p``: ``lit`` is falsified there when its own slot
holds ``~t`` with ``t <= p``, ``~p <= (index[lit] or 0) < 0``, and
:func:`slack_at` prices a side so.  An accumulator made with a trace records
every rule application there as its rule and arguments, and starts from the
trace id its caller gives.  Only its constraint is sorted.

The strategies differ only in those reductions: :func:`settle`, the pass
after every cancellation, saturates the conflict side, prices its slack at
the step and finds its assertion level.  No other module reads the step's
assignment or writes an accumulator.
"""

from __future__ import annotations

from math import lcm

from .core import Constraint
from .propagation import PropagationEngine
from .trace import DerivationTrace

#: Every strategy id, in command-line order -> (conflict-side reduction,
#: reason-side reduction), None where that side is not reduced.
STRATEGIES = {
    "gen-res": (None, "gen-res"),
    "rs-both": ("rs", "rs"),
    "rs-conflict": ("rs", None),
    "rs-reason": (None, "rs"),
    "partial-rs-both": ("partial-rs", "partial-rs"),
    "partial-rs-conflict": ("partial-rs", None),
    "partial-rs-reason": (None, "partial-rs"),
    "weaken-ineffective-both": ("weaken-ineffective", "weaken-ineffective"),
    "weaken-ineffective-conflict": ("weaken-ineffective", "gen-res"),
    "weaken-ineffective-reason": (None, "weaken-ineffective"),
    "multiply-weaken": (None, "multiply-weaken"),
}
STRATEGY_IDS = tuple(STRATEGIES)


class AnalysisError(RuntimeError):
    """Internal invariant breach during conflict analysis."""


class Accumulator:
    """A constraint ``sum(w * lit) >= degree`` that the rules rewrite in place.

    ``weights`` maps each literal to its positive weight; ``cancel``
    leaves new literals where it appends them and :meth:`constraint` sorts.
    The rule methods are the solver's copy of the rules: ``cancel`` adds a
    reason with the minimal multipliers, ``saturate`` caps the weights at
    the degree, and so on.  The trace checker replays the steps they record
    with :mod:`pbsolve.core`'s rule functions, so it does not reuse this
    code.  A tautology cannot arise in a sound analysis, so a rule that
    would produce one raises :class:`AnalysisError`.

    With a ``trace``, every rule application that changes the accumulator is
    recorded as a step, its rule and arguments, and
    ``id`` is the trace id of the current value: ``trace_id``, the id of
    ``c`` in that trace, until the first step.  A saturation or
    multiplication that changes nothing records nothing.  A weakening of
    a value that this accumulator's own ``weaken`` step produced, and
    that is still the trace's last step, adds its literal to that step:
    ``run`` is the id of the last ``weaken`` step the accumulator wrote.
    No other step, ``learned`` record or caller can name that id yet.
    """

    __slots__ = ("weights", "degree", "trace", "id", "run")

    def __init__(self, c: Constraint, trace: DerivationTrace | None = None, trace_id: int | None = None):
        self.weights: dict[int, int] = dict(c.terms)
        self.degree: int = c.degree
        self.trace = trace
        self.id = trace_id
        self.run: int | None = None

    def constraint(self, pairs: dict[int, tuple[int, int]] | None = None) -> Constraint:
        """The current value as a constraint, its terms back in variable order; ``id`` is its trace id.
        ``pairs`` (a fresh dict when None) maps each literal to the last term built for it, reused while
        the weight matches, so the solver's learned constraints share equal terms instead of copies."""
        pairs = {} if pairs is None else pairs
        weights = self.weights
        terms = []
        for lit in sorted(weights, key=abs):
            pair = pairs.get(lit, (0, 0))
            if pair[1] != weights[lit]:
                pairs[lit] = pair = (lit, weights[lit])
            terms.append(pair)
        return Constraint(terms, self.degree)

    def record(self, rule: str, *args: int) -> None:
        """Record the current value in the trace as the output of ``rule`` on ``args``."""
        self.id = self.trace.record(rule, args)

    def weaken(self, lit: int) -> None:
        """Remove a literal and lower the degree by its weight."""
        degree = self.degree - self.weights[lit]
        if degree <= 0:
            raise AnalysisError("weaken produced a tautology during analysis")
        del self.weights[lit]
        self.degree = degree
        trace = self.trace
        if trace is not None:
            steps = trace.steps
            if self.run == self.id == trace.inputs + len(steps):
                rule, args = steps[-1]
                steps[-1] = (rule, (*args, lit))
            else:
                self.record("weaken", self.id, lit)
                self.run = self.id

    def partial_weaken(self, lit: int, eps: int) -> None:
        """Lower a literal's weight and the degree by ``eps``, 0 < eps < weight: the literal stays."""
        degree = self.degree - eps
        if degree <= 0:
            raise AnalysisError("pweaken produced a tautology during analysis")
        self.weights[lit] -= eps
        self.degree = degree
        if self.trace is not None:
            self.record("pweaken", self.id, lit, eps)

    def saturate(self) -> None:
        """Cap every weight at the degree."""
        d = self.degree
        weights = self.weights
        capped = [lit for lit, w in weights.items() if w > d]
        if not capped:
            return
        for lit in capped:
            weights[lit] = d
        if self.trace is not None:
            self.record("saturate", self.id)

    def divide(self, r: int) -> None:
        """Ceiling-divide every weight and the degree by ``r >= 2``: :func:`reduce_rs` never divides by 1."""
        self.weights = {lit: -(-w // r) for lit, w in self.weights.items()}
        self.degree = -(-self.degree // r)
        if self.trace is not None:
            self.record("divide", self.id, r)

    def multiply(self, k: int) -> None:
        """Scale every weight and the degree by ``k >= 1``."""
        if k == 1:
            return
        self.weights = {lit: k * w for lit, w in self.weights.items()}
        self.degree *= k
        if self.trace is not None:
            self.record("multiply", self.id, k)

    def cancel(self, reason: "Accumulator", pivot: int) -> None:
        """Add ``reason``, both scaled by the minimal multipliers that eliminate the pivot.

        ``pivot`` is the literal the reason propagates; its negation occurs
        here.  Opposing literal pairs other than the pivot are merged: the
        dominant polarity keeps the weight difference and the degree drops
        by the cancelled amount.  The result is not saturated.
        """
        weights = self.weights
        w1 = weights[-pivot]
        w2 = reason.weights[pivot]
        common = lcm(w1, w2)
        mu, nu = common // w1, common // w2
        if mu != 1:
            for lit in weights:
                weights[lit] *= mu
        degree = mu * self.degree + nu * reason.degree
        for lit, w in reason.weights.items():
            w *= nu
            opposite = weights.get(-lit)
            if opposite is None:
                weights[lit] = weights.get(lit, 0) + w
            elif opposite > w:
                weights[-lit] = opposite - w
                degree -= w
            else:
                del weights[-lit]
                degree -= opposite
                if w > opposite:
                    weights[lit] = w - opposite
        if degree <= 0:
            raise AnalysisError("cancel produced a tautology during analysis")
        self.degree = degree
        if self.trace is not None:
            self.record("cancel", self.id, reason.id, abs(pivot))


def slack_at(side: Accumulator, index: list[int | None], p: int) -> int:
    """The slack of ``side`` at the step with pivot index ``p``: its weight not falsified there minus its degree."""
    lo = ~p
    return sum(w for lit, w in side.weights.items() if not lo <= (index[lit] or 0) < 0) - side.degree


def settle(side: Accumulator, engine: PropagationEngine, p: int) -> tuple[int, int | None, int | None]:
    """One pass over a conflict side after its cancellation.

    Caps every weight at the degree, recording one saturation if any
    changed, and returns the slack under the trail prefix up to index ``p``
    (a literal is falsified there when its own ``index`` slot holds ``~t``
    with ``t <= p``) and the assertion level: the smallest level L below the
    current one at which, restricted to assignments at levels <= L, the slack is
    non-negative and below some unassigned literal's weight, or None; and
    the slack at that level, or None, which is the engine's slack of the
    constraint once the search has backjumped there.  The slack at L is the
    whole trail's slack plus the weight falsified above L, so one
    descending sweep over the per-level profile finds it.
    """
    index, levels, top = engine.index, engine.levels, engine.current_level
    weights, d = side.weights, side.degree
    falsified = [0] * (top + 1)  # level -> falsified weight
    max_weight = [0] * (top + 1)  # level -> largest weight; unassigned at top
    full = -d  # slack under the whole trail
    later = 0  # weight falsified after index p
    lo = ~p  # a slot below it is falsified after index p
    capped = False
    for lit, w in weights.items():
        if w > d:
            weights[lit] = w = d
            capped = True
        q = index[lit]
        if q is None:
            full += w
            lvl = top
        elif q >= 0:
            full += w
            lvl = levels[q]
        else:
            lvl = levels[~q]
            falsified[lvl] += w
            if q < lo:
                later += w
        if w > max_weight[lvl]:
            max_weight[lvl] = w
    if capped and side.trace is not None:
        side.record("saturate", side.id)
    level = level_slack = None
    s = full + falsified[top]  # the slack at the tested level
    best = max_weight[top]  # the largest weight above it
    most = max(max_weight)  # no level asserts once the slack reaches it
    for lvl in range(top - 1, -1, -1):
        if s >= most:
            break
        if 0 <= s < best:
            level, level_slack = lvl, s
        s += falsified[lvl]
        best = max(best, max_weight[lvl])
    return full + later, level, level_slack


def reduce_genres(
    reason: Accumulator,
    pivot: int,
    index: list[int | None],
    p: int,
    conflict_pivot_weight: int,
    conflict_slack: int,
) -> None:
    """Weaken and saturate the reason until the conflict is provably preserved.

    The loop guard is the subadditivity bound: with ``mu, nu`` the minimal
    multipliers equalizing the pivot weights, the cancellation's slack is at
    most ``mu*slack(conflict) + nu*slack(reason)``, so a negative sum keeps
    the result conflicting.  Only non-falsified literals may be removed, and
    each removal is followed by saturation, which may shrink the pivot weight
    and therefore changes the multipliers.  The reason is saturated first:
    once nothing is left to weaken, its slack is then the pivot weight minus
    the degree, at most 0, so the loop always ends.  ``conflict_slack`` is
    the conflict's slack at the step, which the caller already holds; only
    the reason's slack is priced here, by :func:`slack_at`, after each change.
    ``conflict_pivot_weight`` is the weight of ``-pivot`` in the conflict.
    """
    cw, lo = conflict_pivot_weight, ~p
    reason.saturate()
    while True:
        rw = reason.weights[pivot]
        common = lcm(cw, rw)
        if common // cw * conflict_slack + common // rw * slack_at(reason, index, p) < 0:
            return
        candidates = [
            (w, -abs(lit), lit)
            for lit, w in reason.weights.items()
            if lit != pivot and not lo <= (index[lit] or 0) < 0
        ]
        if not candidates:
            raise AnalysisError("no weakenable literal left in a reason with high slack")
        reason.weaken(min(candidates)[2])
        reason.saturate()


def reduce_rs(side: Accumulator, pivot: int, index: list[int | None], p: int, *, partial: bool = False) -> None:
    """Rounding reduction: the pivot weight becomes exactly 1.

    Every non-falsified literal other than the pivot whose weight is not
    divisible by the pivot weight is weakened away, then the constraint is
    divided by the pivot weight.  With ``partial`` each such weight is only
    weakened by its remainder: the surviving weights are multiples of the
    pivot weight, so the division loses nothing, and the result dominates
    the full reduction pointwise.
    """
    r = side.weights[pivot]
    if r == 1:
        return
    lo = ~p
    for lit, w in tuple(side.weights.items()):
        if lit == pivot or lo <= (index[lit] or 0) < 0:
            continue
        rem = w % r
        if rem == 0:
            continue
        if partial and rem != w:
            side.partial_weaken(lit, rem)
        else:
            side.weaken(lit)
    side.divide(r)


def weaken_ineffective(side: Accumulator, keep: int, index: list[int | None], p: int) -> int:
    """Shorten a constraint by weakening literals while its role is preserved.

    ``keep`` is the side's pivot literal.  A falsified one preserves a
    conflict (slack stays negative); a non-falsified one preserves its
    propagation (its weight stays above the slack).  Every literal but
    ``keep`` whose weight is below the degree is weakened, non-falsified
    ones first, and then, if any was, the side is saturated once: a weight
    that saturation caps is never below the degree, so capping along the
    way would weaken the same literals to the same weights.  No trial is
    priced: weakening a non-falsified literal and saturating never raises
    the slack, and once none is left the slack is the kept literal's weight
    (0 in conflict mode) minus the degree, as weakening a falsified literal
    keeps it; that slack is returned.  The slack at the step at the start,
    read off the sorted pass, must conflict or propagate ``keep`` as the
    mode requires, or ValueError.
    """
    lo = ~p
    propagated = not lo <= (index[keep] or 0) < 0
    order = sorted(
        (lo <= (index[lit] or 0) < 0, w, abs(lit), lit)
        for lit, w in side.weights.items()
        if lit != keep
    )
    kept = side.weights[keep] if propagated else 0
    start = kept - side.degree + sum(w for falsified, w, _, _ in order if not falsified)
    if not propagated:
        if start >= 0:
            raise ValueError("preserve-conflict mode requires a conflicting constraint")
    elif not 0 <= start < kept:
        raise ValueError("preserve-propagation mode requires the kept literal to be propagated")
    weakened = False
    for _, _, _, lit in order:
        if side.weights[lit] < side.degree:
            side.weaken(lit)
            weakened = True
    if weakened:
        side.saturate()
    return (side.weights[keep] if propagated else 0) - side.degree


def reduce_multiply_weaken(
    reason: Accumulator,
    pivot: int,
    index: list[int | None],
    p: int,
    conflict_pivot_weight: int,
) -> bool:
    """Scale the reason and weaken ineffective literals down to a matching degree.

    With ``r`` the reason's pivot weight and ``c`` the conflict's, the minimal
    ``nu = ceil(c/r)`` satisfies ``(nu-1)*r < c <= nu*r``.  The reason is
    multiplied by ``nu`` and its degree lowered to exactly ``c`` by weakening
    ineffective literals (full removals in ascending weight, then one partial
    weakening), so saturation caps the pivot weight at ``c`` and the
    cancellation multiplies neither side.  Returns False, with the reason
    unchanged, when the ineffective mass cannot cover the drop; the caller
    then falls back to the gen-res reduction for this step.
    """
    cw, lo = conflict_pivot_weight, ~p
    nu = -(-cw // reason.weights[pivot])
    need = nu * reason.degree - cw
    if need < 0:
        # Only reachable when the reason is unsaturated (pivot weight above
        # the degree): the degree cannot be *reduced* to ``cw``.
        return False
    ineffective = sorted(
        (w, abs(lit), lit)
        for lit, w in reason.weights.items()
        if lit != pivot and not lo <= (index[lit] or 0) < 0
    )
    if sum(nu * w for w, _, _ in ineffective) < need:
        return False
    reason.multiply(nu)
    for w, _, lit in ineffective:
        if need == 0:
            break
        scaled = nu * w
        if scaled <= need:
            reason.weaken(lit)
            need -= scaled
        else:
            reason.partial_weaken(lit, need)
            need = 0
    reason.saturate()
    return True


def resolve_step(
    conflict: Accumulator,
    reason: Accumulator,
    pivot: int,
    index: list[int | None],
    p: int,
    strategy: str,
    conflict_slack: int,
) -> bool:
    """One strategy-guided cancellation of a reason into the conflict side.

    ``pivot`` is the propagated literal: it occurs positively in the reason
    and negated in the conflict.  ``index`` is the engine's record and
    ``p`` the pivot's trail index, the step's assignment being the trail
    up to and including the pivot, ``strategy`` is a key
    of :data:`STRATEGIES`, and ``conflict_slack`` is the conflict side's
    slack at the step; gen-res's guard reads it, and weaken-ineffective,
    which works out its side's slack itself, hands on the slack it leaves.
    ``reason``, an accumulator sharing the conflict's trace, is reduced in
    place and ``conflict`` rewritten into the cancellation, unsaturated;
    :func:`settle` then saturates it and prices its slack at the step,
    which every strategy keeps negative by construction.  Returns whether
    multiply-weaken fell back to gen-res.
    """
    if conflict_slack >= 0:
        raise ValueError("conflict side is not conflicting under the assignment")
    if -pivot not in conflict.weights:
        raise ValueError("the pivot's negation does not occur in the conflict side")
    if pivot not in reason.weights:
        raise ValueError("the pivot does not occur in the reason side")

    on_conflict, on_reason = STRATEGIES[strategy]
    trace = conflict.trace
    fallback = False

    # Only weaken-ineffective hands back the conflict side's slack; no row
    # follows a rounding of the conflict with gen-res's guard, which reads it.
    if on_conflict == "weaken-ineffective":
        conflict_slack = weaken_ineffective(conflict, -pivot, index, p)
    elif on_conflict is not None:
        reduce_rs(conflict, -pivot, index, p, partial=on_conflict == "partial-rs")
    cw = conflict.weights[-pivot]
    if on_reason == "weaken-ineffective":
        weaken_ineffective(reason, pivot, index, p)
    elif on_reason in ("rs", "partial-rs"):
        reduce_rs(reason, pivot, index, p, partial=on_reason == "partial-rs")
    elif on_reason is not None:
        # gen-res, also after weaken-ineffective on the conflict, whose
        # reduced pivot weight may exceed 1, in which case the cancellation
        # needs the reason weakened as in gen-res; multiply-weaken ends in
        # its guard too, on the unreduced reason when it falls back.
        if on_reason == "multiply-weaken" and not reduce_multiply_weaken(reason, pivot, index, p, cw):
            fallback = True
            if trace is not None:
                trace.note(f"multiply-weaken fallback after {len(trace.steps)} steps")
        reduce_genres(reason, pivot, index, p, cw, conflict_slack)

    conflict.cancel(reason, pivot)
    return fallback
