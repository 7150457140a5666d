"""Conflict-analysis reduction strategies.

Each cancellation step during conflict analysis combines the current conflict
constraint with the reason of a propagated literal.  The raw cancellation
does not always keep the result conflicting, so one or both sides are reduced
first.  This module implements the reduction families as pure functions over
constraints plus a read-only assignment view:

* ``gen-res``            weaken-and-saturate the reason until the scaled-slack
                         sum certifies the conflict is preserved;
* ``rs-*``               fully weaken non-falsified literals whose weight is
                         not divisible by the pivot weight, then divide by it
                         (pivot weight becomes 1);
* ``partial-rs-*``       same, but only shave each weight down to the nearest
                         multiple of the pivot weight before dividing;
* ``weaken-ineffective-*`` greedily drop literals that play no role in the
                         conflict or propagation, shortening the constraint;
* ``multiply-weaken``    scale the reason and weaken ineffective literals so
                         the pivot weights match after saturation, avoiding
                         LCM coefficient growth.

The ``-both`` / ``-conflict`` / ``-reason`` suffix selects the side(s) the
reduction is applied to.  The assignment passed to these functions is the
trail prefix up to and including the pivot's own assignment.  Each reduction
takes a keyword-only ``trace``: when given, every rule application it makes is
recorded there, and its input constraints must already be in that trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .core import Constraint, TAUTOLOGY, is_conflicting, slack
from .trace import RULES, DerivationTrace

#: The exact strategy identifiers accepted on the command line.
STRATEGY_IDS = (
    "gen-res",
    "rs-both",
    "rs-conflict",
    "rs-reason",
    "partial-rs-both",
    "partial-rs-conflict",
    "partial-rs-reason",
    "weaken-ineffective-both",
    "weaken-ineffective-conflict",
    "weaken-ineffective-reason",
    "multiply-weaken",
)


def _split_strategy(name: str) -> tuple[str, str | None]:
    family, _, side = name.rpartition("-")
    if side in ("both", "conflict", "reason"):
        return family, side
    return name, None


_STRATEGY_PARTS = {name: _split_strategy(name) for name in STRATEGY_IDS}


def parse_strategy(name: str) -> tuple[str, str | None]:
    """Split a strategy id into (family, side); raises on unknown ids."""
    parts = _STRATEGY_PARTS.get(name)
    if parts is None:
        raise ValueError(f"unknown strategy {name!r} (choose from {', '.join(STRATEGY_IDS)})")
    return parts


class AnalysisError(RuntimeError):
    """Internal invariant breach during conflict analysis."""


#: core function name -> (trace rule name, number of input constraints).
_RULE_NAMES = {fn: (rule, n_inputs) for rule, (fn, n_inputs, _) in RULES.items()}


def _apply(trace: DerivationTrace | None, rule, *args):
    """Apply a :mod:`pbsolve.core` rule and record it as a step.

    ``args`` are the rule's input constraints followed by its parameters, as
    :data:`pbsolve.trace.RULES` counts them.  The rule is named by
    ``__name__``, so a wrapper installed on :mod:`pbsolve.core` (a profiling
    span) is found too.  A tautology cannot arise in a sound analysis, so it
    raises.  An output that is its first input (a no-op saturation, a
    division or multiplication by 1) is not recorded.
    """
    name, n_inputs = _RULE_NAMES[rule.__name__]
    out = rule(*args)
    if out is TAUTOLOGY:
        raise AnalysisError(f"{name} produced a tautology during analysis")
    if trace is not None and out is not args[0]:
        trace.record(name, args[:n_inputs], args[n_inputs:], out)
    return out


@dataclass
class ResolveOutcome:
    """Result of one strategy-guided cancellation step."""

    constraint: Constraint
    fallback: bool = False


def _falsified(lit: int, rho) -> bool:
    v = rho.get(abs(lit))
    return v is not None and v != (lit > 0)


def reduce_genres(
    conflict: Constraint,
    reason: Constraint,
    pivot: int,
    rho,
    *,
    trace: DerivationTrace | None = None,
) -> Constraint:
    """Weaken and saturate the reason until the conflict is provably preserved.

    The loop guard is the subadditivity bound: with ``mu, nu`` the minimal
    multipliers equalizing the pivot weights, the cancellation's slack is at
    most ``mu*slack(conflict) + nu*slack(reason)``, so a negative sum keeps
    the result conflicting.  Only non-falsified literals may be removed, and
    each removal is followed by saturation, which may shrink the pivot weight
    and therefore changes the multipliers.  The reason is saturated first:
    once nothing is left to weaken, its slack is then the pivot weight minus
    the degree, at most 0, so the loop always ends.
    """
    conflict_slack = slack(conflict, rho)
    reason = _apply(trace, core.saturate, reason)
    while True:
        mu, nu = core.cancel_multipliers(conflict, reason, abs(pivot))
        if mu * conflict_slack + nu * slack(reason, rho) < 0:
            return reason
        candidates = sorted(
            (
                (w, -abs(lit), lit)
                for lit, w in reason.terms
                if lit != pivot and not _falsified(lit, rho)
            ),
        )
        if not candidates:
            raise AnalysisError("no weakenable literal left in a reason with high slack")
        reason = _apply(trace, core.saturate, _apply(trace, core.weaken, reason, candidates[0][2]))


def reduce_rs(
    c: Constraint,
    pivot: int,
    rho,
    *,
    partial: bool = False,
    trace: DerivationTrace | None = None,
) -> Constraint:
    """Rounding reduction: the pivot weight becomes exactly 1.

    Every non-falsified literal other than the pivot whose weight is not
    divisible by the pivot weight is weakened away, then the constraint is
    divided by the pivot weight.  With ``partial`` each such weight is only
    weakened by its remainder: the surviving weights are multiples of the
    pivot weight, so the division loses nothing, and the result dominates
    the full reduction pointwise.
    """
    r = c.weight_of(pivot)
    if not r:
        raise ValueError("pivot does not occur in the constraint")
    for lit, w in c.terms:
        if lit == pivot or _falsified(lit, rho):
            continue
        rem = w % r
        if rem == 0:
            continue
        if partial and rem != w:
            c = _apply(trace, core.partial_weaken, c, lit, rem)
        else:
            c = _apply(trace, core.weaken, c, lit)
    return _apply(trace, core.divide, c, r)


def weaken_ineffective(
    c: Constraint,
    rho,
    *,
    pivot: int | None = None,
    protect: int | None = None,
    trace: DerivationTrace | None = None,
) -> Constraint:
    """Shorten a constraint by weakening literals while its role is preserved.

    ``pivot=None`` preserves a conflict (slack stays negative); otherwise the
    propagation of ``pivot`` is preserved (its weight stays above the slack).
    Non-falsified literals are tried first (their removal never changes the
    slack), then falsified ones; each committed weakening is saturated.  The
    trial's weakened and saturated constraints are the ones committed.
    ``protect`` is never weakened: the caller needs it for the upcoming
    cancellation.
    """
    start = slack(c, rho)
    if pivot is None:
        if start >= 0:
            raise ValueError("preserve-conflict mode requires a conflicting constraint")
    else:
        if not 0 <= start < c.weight_of(pivot):
            raise ValueError("preserve-propagation mode requires the pivot to be propagated")
    order = sorted(
        (
            (_falsified(lit, rho), w, abs(lit), lit)
            for lit, w in c.terms
            if lit != pivot and lit != protect
        ),
    )
    for _, _, _, lit in order:
        weakened = core.weaken(c, lit)
        if weakened is TAUTOLOGY:
            continue
        trial = core.saturate(weakened)
        if pivot is None:
            if slack(trial, rho) >= 0:
                continue
        else:
            if trial.weight_of(pivot) <= slack(trial, rho):
                continue
        if trace is not None:
            trace.record("weaken", (c,), (lit,), weakened)
            if trial is not weakened:
                trace.record("saturate", (weakened,), (), trial)
        c = trial
    return c


def reduce_multiply_weaken(
    reason: Constraint,
    pivot: int,
    conflict_pivot_weight: int,
    rho,
    *,
    trace: DerivationTrace | None = None,
) -> Constraint | None:
    """Scale the reason and weaken ineffective literals down to a matching degree.

    With ``r`` the reason's pivot weight and ``c`` the conflict's, the minimal
    ``nu = ceil(c/r)`` satisfies ``(nu-1)*r < c <= nu*r``.  The reason is
    multiplied by ``nu`` and its degree lowered to exactly ``c`` by weakening
    ineffective literals (full removals in ascending weight, then one partial
    weakening), so saturation caps the pivot weight at ``c`` and the
    cancellation multiplies neither side.  Returns None when the ineffective
    mass cannot cover the drop; the caller then falls back to the gen-res
    reduction for this step.
    """
    cw = conflict_pivot_weight
    nu = -(-cw // reason.weight_of(pivot))
    need = nu * reason.degree - cw
    if need < 0:
        # Only reachable when the reason is unsaturated (pivot weight above
        # the degree): the degree cannot be *reduced* to ``cw``.
        return None
    ineffective = sorted(
        (w, abs(lit), lit)
        for lit, w in reason.terms
        if lit != pivot and not _falsified(lit, rho)
    )
    if sum(nu * w for w, _, _ in ineffective) < need:
        return None
    c = _apply(trace, core.multiply, reason, nu)
    for w, _, lit in ineffective:
        if need == 0:
            break
        scaled = nu * w
        if scaled <= need:
            c = _apply(trace, core.weaken, c, lit)
            need -= scaled
        else:
            c = _apply(trace, core.partial_weaken, c, lit, need)
            need = 0
    return _apply(trace, core.saturate, c)


def resolve_step(
    conflict: Constraint,
    reason: Constraint,
    pivot: int,
    rho,
    strategy: str,
    *,
    trace: DerivationTrace | None = None,
) -> ResolveOutcome:
    """One strategy-guided cancellation between a conflict and a reason.

    ``pivot`` is the propagated literal: it occurs positively in the reason
    and negated in the conflict.  ``rho`` is the assignment in effect at this
    step (up to and including the pivot).  The returned constraint is
    saturated and guaranteed to be conflicting under ``rho``; a violation of
    that guarantee raises :class:`AnalysisError` since every reduction family
    establishes it by construction.  With a ``trace``, every rule application
    is recorded there; ``conflict`` and ``reason`` must already be in it.
    """
    if not is_conflicting(conflict, rho):
        raise ValueError("conflict side is not conflicting under the assignment")
    if -pivot not in conflict:
        raise ValueError("the pivot's negation does not occur in the conflict side")
    if pivot not in reason:
        raise ValueError("the pivot does not occur in the reason side")

    family, side = parse_strategy(strategy)
    fallback = False

    if family == "gen-res":
        reason = reduce_genres(conflict, reason, pivot, rho, trace=trace)
    elif family in ("rs", "partial-rs"):
        partial = family == "partial-rs"
        if side in ("both", "conflict"):
            conflict = reduce_rs(conflict, -pivot, rho, partial=partial, trace=trace)
        if side in ("both", "reason"):
            reason = reduce_rs(reason, pivot, rho, partial=partial, trace=trace)
    elif family == "weaken-ineffective":
        if side in ("both", "conflict"):
            conflict = weaken_ineffective(conflict, rho, protect=-pivot, trace=trace)
        if side in ("both", "reason"):
            reason = weaken_ineffective(reason, rho, pivot=pivot, trace=trace)
        if side == "conflict":
            # The reduced conflict's pivot weight may exceed 1, in which case
            # the cancellation needs the reason weakened as in gen-res.
            reason = reduce_genres(conflict, reason, pivot, rho, trace=trace)
    elif family == "multiply-weaken":
        reduced = reduce_multiply_weaken(
            reason, pivot, conflict.weight_of(-pivot), rho, trace=trace
        )
        if reduced is None:
            fallback = True
            if trace is not None:
                trace.note(f"multiply-weaken fallback after {len(trace.steps)} steps")
        else:
            reason = reduced
        reason = reduce_genres(conflict, reason, pivot, rho, trace=trace)
    else:  # pragma: no cover - parse_strategy rejects unknown families
        raise AssertionError(family)

    out = _apply(trace, core.saturate, _apply(trace, core.cancel, conflict, reason, abs(pivot)))
    if not is_conflicting(out, rho):
        raise AnalysisError(
            f"resolve_step produced a non-conflicting constraint with {strategy}: {out.to_text()}"
        )
    return ResolveOutcome(out, fallback)
