"""Command-line front end.

Subcommands: ``solve`` one OPB file, ``bench`` a directory as an
(instance x strategy) matrix with CSV output, ``generate`` pigeonhole or
random instances, and ``verify`` a derivation trace against its instance.
Solve exit codes follow the competition convention: 10 satisfiable,
20 unsatisfiable, 0 unknown, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import STRATEGY_IDS
from .bench import run_matrix, write_cactus_csv, write_csv
from .generators import balanced_instance, php_instance
from .opb import (
    OpbSyntaxError,
    SAT,
    UNKNOWN,
    UNSAT,
    format_solution,
    parse_opb,
    write_opb,
)
from .solver import SolverConfig, solve
from .trace import DerivationTrace, verify_trace

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1

#: The ``tag`` of every instance ``generate random`` writes.
RANDOM_TAG = "cli"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbsolve",
        description="Pseudo-Boolean CDCL solver with selectable conflict-analysis strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single OPB file")
    p_solve.add_argument("file", type=Path)
    p_solve.add_argument("--strategy", default=SolverConfig.strategy, help=f"one of: {', '.join(STRATEGY_IDS)}")
    p_solve.add_argument("--timeout", type=float, default=None, metavar="SECS")
    p_solve.add_argument("--emit-trace", type=Path, default=None, metavar="PATH",
                         help="write the derivation trace to a sidecar file")
    p_solve.add_argument("--ignore-objective", action="store_true",
                         help="drop an objective line instead of rejecting it")

    p_bench = sub.add_parser("bench", help="run an instance x strategy matrix")
    p_bench.add_argument("dir", type=Path)
    p_bench.add_argument("--strategies", default=",".join(STRATEGY_IDS),
                         help="comma-separated strategy ids (default: all)")
    p_bench.add_argument("--timeout", type=float, default=1200.0, metavar="SECS")
    p_bench.add_argument("--jobs", type=int, default=1, metavar="J")
    p_bench.add_argument("--out", type=Path, required=True, metavar="CSV")
    p_bench.add_argument("--cactus", type=Path, default=None, metavar="CSV",
                         help="cactus CSV path (default: <out>.cactus.csv)")
    p_bench.add_argument("--trace-dir", type=Path, default=None,
                         help="emit a derivation trace per run into this directory")

    p_gen = sub.add_parser("generate", help="generate instance files")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_php = gen_sub.add_parser("php", help="pigeonhole principle instance")
    g_php.add_argument("--pigeons", type=int, required=True)
    g_php.add_argument("--holes", type=int, required=True)
    g_php.add_argument("--out", type=Path, required=True)
    g_rand = gen_sub.add_parser("random", help="seeded balanced random instance")
    g_rand.add_argument("--vars", type=int, required=True)
    g_rand.add_argument("--constraints", type=int, required=True)
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--out", type=Path, required=True)

    p_verify = sub.add_parser("verify", help="replay-check a derivation trace")
    p_verify.add_argument("file", type=Path, help="the OPB instance")
    p_verify.add_argument("trace", type=Path, help="the trace emitted by solve")
    return parser


def _file_key(path: Path) -> object:
    """An existing regular file's ``(st_dev, st_ino)``, which every link to it
    shares; otherwise the resolved path."""
    if path.is_file():
        st = path.stat()
        return st.st_dev, st.st_ino
    return path.resolve()


def _bad_output_path(inputs: list[Path], *paths: Path | None) -> bool:
    """Print an error line for the first output path in a missing directory,
    naming a directory, or naming a file of ``inputs`` or an earlier output,
    by its path or by a hard link to it (a device such as /dev/null may be
    named again).  Called before any work.
    """
    taken = dict.fromkeys(map(_file_key, inputs), "an input")
    for path in filter(None, paths):
        where = _file_key(path)
        if not path.parent.is_dir():
            problem = f"no directory {path.parent}"
        elif path.is_dir():
            problem = "it is a directory"
        elif where in taken and (path.is_file() or not path.exists()):
            problem = f"it is also {taken[where]}"
        else:
            taken[where] = "an earlier output"
            continue
        print(f"error: cannot write {path}: {problem}", file=sys.stderr)
        return True
    return False


def _written(path: Path, write, *data) -> bool:
    """Write ``path`` through ``write(*data, stream)``.  On an OSError, print
    one ``error: cannot write`` line, as :func:`_bad_output_path` does, and
    return False.
    """
    try:
        with open(path, "w", encoding="ascii") as f:
            write(*data, f)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_solve(args) -> int:
    if _bad_output_path([args.file], args.emit_trace):
        return EXIT_ERROR
    try:
        config = SolverConfig(
            strategy=args.strategy,
            time_budget=args.timeout,
            emit_trace=args.emit_trace is not None,
        )
        with open(args.file, "r", encoding="ascii") as f:
            instance = parse_opb(f, name=args.file.name, allow_objective=args.ignore_objective)
    except OpbSyntaxError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    result = solve(instance, config)
    st = result.stats
    print(f"c conflicts {st.conflicts} decisions {st.decisions} propagations {st.propagations}")
    print(f"c learned {st.learned} restarts {st.restarts} max-coeff-bits {st.max_coeff_bits}")
    print(f"c seconds {st.seconds:.3f} assignments-per-second {st.assignments_per_second:.0f}")
    print(format_solution(result.status, result.model, instance.nvars))
    if result.trace is not None and not _written(args.emit_trace, result.trace.write):
        return EXIT_ERROR
    return {SAT: EXIT_SAT, UNSAT: EXIT_UNSAT, UNKNOWN: EXIT_UNKNOWN}[result.status]


def _cmd_bench(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        print("error: no strategies given", file=sys.stderr)
        return EXIT_ERROR
    if not args.dir.is_dir():
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return EXIT_ERROR
    paths = sorted(args.dir.glob("*.opb"))
    if not paths:
        print(f"error: no .opb files in {args.dir}", file=sys.stderr)
        return EXIT_ERROR
    cactus = args.cactus or args.out.with_suffix(".cactus.csv")
    if _bad_output_path(paths, args.out, cactus):
        return EXIT_ERROR
    try:
        records = run_matrix(
            paths, strategies, args.timeout, jobs=args.jobs, trace_dir=args.trace_dir
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not (_written(args.out, write_csv, records) and _written(cactus, write_cactus_csv, records)):
        return EXIT_ERROR
    solved = sum(r.status != UNKNOWN for r in records)
    crashed = sum(r.error is not None for r in records)
    unwritten = sum(r.trace_error is not None for r in records)
    for r in records:
        if r.error or r.trace_error:
            print(f"error: {r.instance} {r.strategy}: {r.error or r.trace_error}", file=sys.stderr)
    traces = "" if args.trace_dir is None else f", {unwritten} trace{'s' * (unwritten != 1)} not written"
    print(
        f"c {len(records)} runs, {solved} solved, {crashed} crashed{traces}; "
        f"rows in {args.out}, cactus in {cactus}"
    )
    # A trace that cannot be written fails the command, as it fails ``solve --emit-trace``.
    return EXIT_ERROR if unwritten else 0


def _cmd_generate(args) -> int:
    if _bad_output_path([], args.out):
        return EXIT_ERROR
    try:
        if args.family == "php":
            instance = php_instance(args.pigeons, args.holes)
        else:
            instance = balanced_instance(args.vars, args.constraints, args.seed, RANDOM_TAG)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not _written(args.out, write_opb, instance):
        return EXIT_ERROR
    print(f"c wrote {instance.name}: {len(instance.constraints)} constraints over {instance.nvars} variables")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.file, "r", encoding="ascii") as f:
            # A trace certifies only the constraints, so an objective line
            # is dropped with a warning, as ``solve --ignore-objective`` does.
            instance = parse_opb(f, name=args.file.name, allow_objective=True)
        check = verify_trace(instance, DerivationTrace.read_file(args.trace))
    except (OSError, OpbSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if check:
        print(f"c trace OK ({check.steps_checked} steps replayed)")
        return 0
    print(f"error: {check.error}", file=sys.stderr)
    return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    # Weights are unbounded; CPython caps int <-> str conversion at 4,300
    # digits by default, which OPB input and trace text would hit.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the documented code.
        return EXIT_ERROR if exc.code else 0
    handlers = {
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
