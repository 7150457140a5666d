"""Trail management and counter-based unit propagation.

The trail is three parallel lists: the assigned literals, their levels and
their reasons, the id of the propagating constraint or None for a decision.
The levels never decrease and each level starts with its decision, so a
level's first entry is found by bisection.  ``index``, the one record of the
assignment, is a list indexed by the signed literal (2n + 1 slots for n
variables, negative indexing giving ``-v`` its own), two slots per assigned
variable written and cleared together: the true literal's trail index ``t``
and, in the false literal's slot, ``~t``; both are None while it is free, so
one read says whether a literal is free, true or false, and since when.
``occs``, laid out the same way, holds each literal's ``(cid, weight)``
entries.  :meth:`assign` and :meth:`add_constraint` reject a variable outside
1..n, whose literals would alias other slots; reads through attached
constraints trust them.  The engine keeps, for every attached
constraint, its current slack under the assignment, updated incrementally:
assigning a literal lowers the slack of every constraint containing its
negation by that literal's weight, and unassigning restores it.  Propagation
scans constraints whose slack may admit candidates and assigns every
unassigned literal whose weight exceeds the slack.  Two counters say how far
it has got: every constraint id below ``_scanned`` has had its first scan, and
every trail entry below ``_qhead`` has had the constraints holding its
negation visited.  A counter moves past an entry only once that entry's work
is done, so a conflict returns without touching either, and the next call
resumes at the same entry once backjumping has repaired it.  The search
decides only after :meth:`propagate_all` returns None, so below the current
level no constraint conflicts or propagates; conflict analysis rests on that.
One engine instance is strictly single-threaded.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .core import Constraint


class PropagationEngine:
    def __init__(self, nvars: int):
        self.nvars = nvars
        self.constraints: list[Constraint | None] = []  # None = removed
        self.slacks: list[int] = []  # not maintained for removed constraints
        self.max_weights: list[int] = []  # cid -> its constraint's max_weight
        self.occs: list[list[tuple[int, int]]] = [[] for _ in range(2 * nvars + 1)]  # lit -> [(cid, weight)], one object per run of weights
        self.trail: list[int] = []  # assigned literals, in order
        self.levels: list[int] = []  # trail index -> decision level
        self.reasons: list[int | None] = []  # trail index -> constraint id, None = decision
        self.index: list[int | None] = [None] * (2 * nvars + 1)  # lit -> t true at t, ~t false at t; read-only outside
        self._scanned = 0  # constraint ids below it have had their first scan
        self._qhead = 0  # trail entries below it have had their occurrences visited
        self.propagations = 0

    @property
    def current_level(self) -> int:
        """The number of open decision levels: the level of the last trail entry, 0 on an empty trail."""
        return self.levels[-1] if self.levels else 0

    # -- database ---------------------------------------------------------

    def add_constraint(self, c: Constraint, s: int | None = None) -> int:
        """Attach a constraint whose slack under the current trail is ``s``, priced here when None.
        Entries are only read, so each run of equal weights in ``c.terms`` shares one ``(cid, weight)``
        object: a literal inside a run allocates no tuple for the cyclic GC to track."""
        if c.terms and abs(c.terms[-1][0]) > self.nvars:  # the last term names the largest variable
            raise ValueError(f"variable x{abs(c.terms[-1][0])} is outside 1..{self.nvars}")
        constraints, occs = self.constraints, self.occs
        cid = len(constraints)
        constraints.append(c)
        entry = (cid, 0)
        for lit, w in c.terms:
            if w != entry[1]:
                entry = (cid, w)
            occs[lit].append(entry)
        if s is None:
            index, s = self.index, -c.degree
            for lit, w in c.terms:
                if (index[lit] or 0) >= 0:
                    s += w
        self.slacks.append(s)
        self.max_weights.append(c.max_weight)
        return cid

    def remove_constraints(self, cids: Iterable[int]) -> None:
        """Detach constraints and drop their entries from the occurrence lists.

        Every list is filtered once; the surviving entries keep their order,
        so propagation visits the remaining constraints exactly as before.
        """
        constraints, occs = self.constraints, self.occs
        for cid in cids:
            constraints[cid] = None
        for lit, entries in enumerate(occs):
            occs[lit] = [e for e in entries if constraints[e[0]] is not None]

    # -- trail operations ---------------------------------------------------

    def assign(self, lit: int, reason: int | None) -> None:
        """Append a literal to the trail and update affected slacks."""
        index = self.index
        if not 0 < abs(lit) <= self.nvars:
            raise ValueError(f"variable x{abs(lit)} is outside 1..{self.nvars}")
        if index[lit] is not None:
            raise ValueError(f"variable x{abs(lit)} is already assigned")
        t = len(self.trail)
        index[lit], index[-lit] = t, ~t
        self.trail.append(lit)
        self.levels.append(self.current_level)
        self.reasons.append(reason)
        slacks = self.slacks
        for cid, w in self.occs[-lit]:
            slacks[cid] -= w

    def assume(self, lit: int) -> None:
        """Open a new decision level and assign the literal as its decision; one that
        :meth:`assign` rejects appends nothing, so it opens no level."""
        self.assign(lit, None)
        self.levels[-1] += 1

    def propagate_all(self) -> int | None:
        """Propagate to fixpoint; return the first conflicting constraint id.

        Returns None when no constraint is conflicting, in which case no
        constraint propagates any further literal.  New constraints get
        their first scan before the next trail entry is visited.
        """
        constraints, slacks, max_weights = self.constraints, self.slacks, self.max_weights
        occs, trail = self.occs, self.trail
        while True:
            cid = self._scanned
            if cid < len(constraints):
                c = constraints[cid]
                if c is not None:
                    s = slacks[cid]
                    if s < 0:
                        return cid
                    if s < max_weights[cid]:
                        self._scan(cid, c, s)
                self._scanned = cid + 1
            elif self._qhead < len(trail):
                qhead = self._qhead
                for cid, _ in occs[-trail[qhead]]:
                    s = slacks[cid]
                    if s < 0:
                        return cid
                    if s < max_weights[cid]:
                        self._scan(cid, constraints[cid], s)
                self._qhead = qhead + 1
            else:
                return None

    def _scan(self, cid: int, c: Constraint, s: int) -> None:
        """Assign every free literal of ``c`` whose weight exceeds its slack ``s``.

        Each assignment is written as :meth:`assign` writes it, without its
        already-assigned check: the test here has just shown the literal free.
        """
        index, trail, slacks, occs = self.index, self.trail, self.slacks, self.occs
        levels, reasons = self.levels, self.reasons
        level = levels[-1] if levels else 0
        for lit, w in c.terms:
            if w > s and index[lit] is None:
                t = len(trail)
                index[lit], index[-lit] = t, ~t
                trail.append(lit)
                levels.append(level)
                reasons.append(cid)
                for other, v in occs[-lit]:
                    slacks[other] -= v
                self.propagations += 1

    def backjump_to(self, level: int) -> list[int]:
        """Remove all entries above ``level``; returns the unassigned literals in trail order."""
        if not 0 <= level < self.current_level:
            raise ValueError(
                f"backjump level {level} is negative or not below the current level {self.current_level}"
            )
        start = bisect_left(self.levels, level + 1)
        popped = self.trail[start:]
        index, slacks, occs = self.index, self.slacks, self.occs
        for lit in popped:
            index[lit] = index[-lit] = None
            for cid, w in occs[-lit]:
                slacks[cid] += w
        del self.trail[start:], self.levels[start:], self.reasons[start:]
        self._qhead = min(self._qhead, start)
        return popped
