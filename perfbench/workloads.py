"""The benchmark's inputs: instance families and the job list of each workload.

Every instance is generated here as OPB text plus the raw rows it was written
from, so SAT models are checked against the generator's own arithmetic rather
than against anything pbsolve parsed.  A job is one (instance, strategy) solve
with a deterministic conflict budget; budgets, not time limits, end a search,
so statuses and counters repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The strategies a researcher's matrix compares, in pbsolve's order.
ALL_STRATEGIES = (
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
#: Strategies that refute php-(n+1)-n in n conflicts.
CUTTING_PLANES = ALL_STRATEGIES[:7]
#: Resolution-degenerate strategies: pigeonhole is exponential for them.
DEGENERATE = ALL_STRATEGIES[7:]

#: Default strategy of pbsolve's SolverConfig, used for the long jobs.
DEFAULT_STRATEGY = "partial-rs-both"


@dataclass(frozen=True)
class Instance:
    name: str
    opb: str
    #: ``((coefficient, variable), ...), rhs`` per ``>=`` row, as written.
    rows: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    #: Unsatisfiable by construction (pigeonhole with more pigeons than holes).
    unsat: bool = False


@dataclass(frozen=True)
class Job:
    instance: Instance
    strategy: str
    conflict_budget: int
    emit_trace: bool = False

    @property
    def name(self) -> str:
        return f"{self.instance.name}/{self.strategy}"


def _to_opb(nvars: int, rows) -> str:
    lines = [f"* #variable= {nvars} #constraint= {len(rows)}"]
    for terms, rhs in rows:
        lhs = " ".join(f"{c:+d} x{v}" for c, v in terms)
        lines.append(f"{lhs} >= {rhs} ;")
    return "\n".join(lines) + "\n"


def php(pigeons: int, holes: int) -> Instance:
    """Pigeonhole: at least one hole per pigeon, at most one pigeon per hole."""

    def var(p: int, h: int) -> int:
        return (p - 1) * holes + h

    rows = [tuple((1, var(p, h)) for h in range(1, holes + 1)) for p in range(1, pigeons + 1)]
    rows = [(terms, 1) for terms in rows]
    rows += [
        (tuple((-1, var(p, h)) for p in range(1, pigeons + 1)), -1)
        for h in range(1, holes + 1)
    ]
    return Instance(
        f"php-{pigeons}-{holes}",
        _to_opb(pigeons * holes, rows),
        tuple(rows),
        unsat=pigeons > holes,
    )


def balanced_random(nvars: int, nconstraints: int, seed: int, tag: str) -> Instance:
    """Random PB near the SAT/UNSAT threshold that forces real search.

    Each row has six distinct variables with weights in 1..10 and random
    polarity, and asks for a quarter of its weight sum (rounded up).  Unlike
    pbsolve's ``random_instance``, which is either SAT without a conflict or
    UNSAT at the root, these need hundreds to thousands of conflicts at the
    sizes used here.
    """
    rng = random.Random(f"balanced/{seed}/{tag}/{nvars}/{nconstraints}")
    rows = []
    for _ in range(nconstraints):
        variables = rng.sample(range(1, nvars + 1), 6)
        weights = [rng.randint(1, 10) for _ in variables]
        rhs = -(-sum(weights) // 4)
        terms = []
        for v, w in zip(variables, weights):
            if rng.random() < 0.5:
                terms.append((w, v))
            else:
                # w * ~x = w - w * x
                terms.append((-w, v))
                rhs -= w
        rows.append((tuple(terms), rhs))
    return Instance(f"rand-{tag}-{nvars}-{nconstraints}", _to_opb(nvars, rows), tuple(rows))


def model_satisfies(instance: Instance, model: dict[int, bool]) -> bool:
    """Evaluate every written row under a total model."""
    for terms, rhs in instance.rows:
        if sum(c for c, v in terms if model.get(v, False)) < rhs:
            return False
    return True


@dataclass(frozen=True)
class Sizes:
    ladder: tuple[int, ...]  # php-(n+1)-n for each n
    proof: tuple[tuple[int, int], ...]  # (pigeons, holes)
    matrix: tuple[int, int, int]  # (instances, vars, constraints), two strategies each
    long: tuple[int, int, int]  # (vars, constraints, conflict budget)


SCALES = {
    # Odd rung counts put the median job (and the tail job) inside a group of
    # same-size jobs instead of in the gap between two sizes, where it would
    # swing with whichever neighbour happened to run slower.  php-proof stops
    # at php-6-5: php-7-6's 1-3 s jobs and 3-4 MB traces spread by 13-18 %
    # from run to run on a shared 2-core VM, while many passes of shorter
    # jobs stay steady.
    "full": Sizes(
        ladder=(8, 12, 16, 20, 24, 28, 32),
        proof=((4, 3), (5, 4), (6, 5)),
        matrix=(88, 30, 135),
        long=(85, 357, 2100),
    ),
    # Seconds-long versions for the self-test.  The long job keeps its full
    # size because only a search past 2,000 learned constraints reaches
    # reduce_db under the default configuration.
    "tiny": Sizes(
        ladder=(4, 6),
        proof=((4, 3), (5, 4)),
        matrix=(11, 20, 90),
        long=(85, 357, 2100),
    ),
}

#: Safety budget for jobs expected to finish well inside it.
GENEROUS_BUDGET = 50_000

WORKLOADS = ("php-ladder", "php-proof", "random-search")

#: Seconds one full-scale pass takes on a shared 2-core x86_64 VM with CPython
#: 3.11 at its usual speed.  The pass count follows from it and not from the
#: clock, so every run does the same work, and a slow stretch of the machine
#: makes a run longer instead of giving it fewer samples.
PASS_SECONDS = {"php-ladder": 8.0, "php-proof": 2.0, "random-search": 25.0}


def passes(workload: str, scale: str, seconds: float) -> int:
    """How many passes fit ``seconds``; the tiny scale always repeats once."""
    if scale != "full":
        return 2
    return max(1, int(seconds // PASS_SECONDS[workload]))


#: Workloads whose instances depend on the seed (for the others the seed
#: only orders the jobs).
SEEDED_INPUTS = ("random-search",)


def jobs_for(workload: str, seed: int, scale: str = "full") -> list[Job]:
    """The job list of one workload run, in the seed's order."""
    sizes = SCALES[scale]
    jobs: list[Job] = []
    if workload == "php-ladder":
        for n in sizes.ladder:
            inst = php(n + 1, n)
            jobs += [Job(inst, s, GENEROUS_BUDGET) for s in CUTTING_PLANES]
    elif workload == "php-proof":
        for p, h in sizes.proof:
            inst = php(p, h)
            jobs += [Job(inst, s, GENEROUS_BUDGET, emit_trace=True) for s in DEGENERATE]
    elif workload == "random-search":
        # Each instance meets two strategies, rotating through all eleven so
        # every strategy meets the same number of instances.  Many instances
        # with two strategies each vary less from seed to seed than a few
        # instances with all eleven: the seed changes instance difficulty.
        count, nvars, ncons = sizes.matrix
        for i in range(count):
            inst = balanced_random(nvars, ncons, seed, f"m{i}")
            pair = (ALL_STRATEGIES[(2 * i) % 11], ALL_STRATEGIES[(2 * i + 1) % 11])
            jobs += [Job(inst, s, GENEROUS_BUDGET) for s in pair]
        # The long job searches one fixed instance to its budget, past the
        # first reduce_db.  Its time per conflict differs by up to 75 % from
        # one random instance to the next, so the seed does not choose it.
        nvars, ncons, budget = sizes.long
        jobs.append(Job(balanced_random(nvars, ncons, 0, "long"), DEFAULT_STRATEGY, budget))
    else:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    random.Random(f"order/{seed}/{workload}").shuffle(jobs)
    return jobs
