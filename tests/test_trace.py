"""Derivation-trace serialization and replay-checker tests."""

import ast
import functools
import inspect
import io
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from pbsolve import core
from pbsolve.analysis import STRATEGY_IDS
from pbsolve.generators import balanced_instance, php_instance
from pbsolve.opb import ParsedInstance, SAT, UNSAT, parse_opb
from pbsolve.solver import SolverConfig, solve
from pbsolve.trace import RULES, DerivationTrace, TraceCheck, verify_trace
from helpers import REFERENCE_RULES, cancel, con, random_instance

ROOT = Path(__file__).resolve().parent.parent


def solve_with_trace(instance, strategy="gen-res"):
    result = solve(instance, SolverConfig(strategy=strategy, emit_trace=True))
    assert result.trace is not None
    return result


def trace_text(trace):
    buf = io.StringIO()
    trace.write(buf)
    return buf.getvalue()


@functools.cache
def php_trace_text():
    """php-5-4's trace under weaken-ineffective-conflict: 220 steps, 43 of them runs of two or more weakenings."""
    return trace_text(solve_with_trace(php_instance(5, 4), "weaken-ineffective-conflict").trace)


class TestSerialization:
    def test_write_read_round_trip(self):
        instance = php_instance(3, 2)
        result = solve_with_trace(instance)
        text = trace_text(result.trace)
        again = DerivationTrace.read(io.StringIO(text))
        assert again.inputs == result.trace.inputs
        assert again.steps == result.trace.steps
        assert again.learned == result.trace.learned
        assert again.final == result.trace.final

    def test_file_round_trip(self, tmp_path):
        instance = php_instance(2, 1)
        result = solve_with_trace(instance)
        path = tmp_path / "run.trace"
        result.trace.write_file(path)
        assert verify_trace(instance, DerivationTrace.read_file(path))

    def test_comments_and_blank_lines_are_skipped(self):
        lines = ["i 1", "s saturate 1", "l 2 : 1 x1 1 x2 >= 1", "f 2"]
        plain = DerivationTrace.read(lines)
        commented = DerivationTrace.read(["* a note", "", *lines[:2], "   ", "*another", *lines[2:]])
        assert commented.inputs == plain.inputs
        assert commented.steps == plain.steps == [("saturate", (1,))]
        learned = [(2, con("a b >= 1"))]
        assert (commented.learned, commented.final) == (plain.learned, plain.final) == (learned, 2)

    @pytest.mark.parametrize(
        "lines", [[], ["* a note", "f 1"], ["", "l 3 : >= 1"]], ids=["empty", "note-and-final", "learned"]
    )
    def test_trace_without_inputs_or_steps_is_read(self, lines):
        trace = DerivationTrace.read(lines)
        assert (trace.inputs, trace.steps) == (0, [])
        assert trace.record("saturate", (1,)) == 1

    def test_unknown_record_kind_is_rejected(self):
        with pytest.raises(ValueError, match=r"^trace line 2: unknown record kind 'x'$"):
            DerivationTrace.read(["i 1", "x 2"])

    def test_second_input_count_is_rejected_at_its_line(self):
        with pytest.raises(ValueError, match=r"^trace line 3: a second input count$"):
            DerivationTrace.read(["i 2", "* a note", "i 2"])

    def test_final_record_appended_to_a_real_trace_is_rejected(self):
        # A second `f` record does not replace the first.
        lines = [*php_trace_text().splitlines(), "f 1"]
        with pytest.raises(ValueError, match=f"^trace line {len(lines)}: a second final record$"):
            DerivationTrace.read(lines)

    def test_old_form_input_record_is_rejected_at_its_line(self):
        # Inputs are named by position; a trace restating one is not read.
        with pytest.raises(ValueError, match=r"^trace line 2: invalid literal for int\(\)"):
            DerivationTrace.read(["* a note", "i 1 1 x1 >= 1", "f 1"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("s saturate 1 : 1 x1 1 x2 >= 1", "saturate takes 1 arguments, got 8"),
            ("s 3 saturate 1 : 1 x1 1 x2 >= 1", "unknown rule '3'"),
            ("l 3", "a learned id without its constraint"),
        ],
        ids=["step-with-constraint", "step-with-id", "learned-without-constraint"],
    )
    def test_old_form_record_is_rejected_at_its_line(self, line, message):
        # A step writes only its rule and arguments, and a learned record its
        # constraint: a trace in an older form is not read.
        with pytest.raises(ValueError, match=f"^{re.escape(f'trace line 2: {message}')}$"):
            DerivationTrace.read(["i 2", line, "f 3"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("s", "unknown rule ''"),
            ("s 5", "unknown rule '5'"),
            ("s  : 1 x1 >= 1", "unknown rule ':'"),
            ("s foo x", "unknown rule 'foo'"),
        ],
        ids=["s", "s 5", "constraint-only", "unknown-rule"],
    )
    def test_step_without_rule_is_rejected(self, line, message):
        # The rule is checked before its arguments are read as integers.
        with pytest.raises(ValueError, match=f"^{re.escape(f'trace line 2: {message}')}$"):
            DerivationTrace.read(["i 1", line])

    def test_written_trace_counts_its_inputs_once_before_every_step(self):
        instance = php_instance(4, 3)
        lines = trace_text(solve_with_trace(instance, "weaken-ineffective-both").trace).splitlines()
        kinds = [line.split()[0] for line in lines]
        assert kinds.count("i") == 1 and "s" in kinds
        at = kinds.index("i")
        assert lines[at] == f"i {len(instance.constraints)}"
        assert "s" not in kinds[:at]

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError) as err:
            DerivationTrace.read(io.StringIO("i 1 junk\n"))
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize(
        "rule, arity",
        [("cancel", 3), ("weaken", 2), ("pweaken", 3), ("saturate", 1), ("divide", 2), ("multiply", 2)],
    )
    def test_wrong_argument_count_is_rejected(self, rule, arity, extra):
        args = " ".join(["1"] * (arity + extra))
        lines = ["i 1", f"s {rule} {args}"]
        if rule == "weaken" and extra > 0:
            # A weaken step names its input and one or more literals.
            assert DerivationTrace.read(lines).steps == [("weaken", (1,) * (arity + extra))]
            return
        least = "at least " if rule == "weaken" else ""
        message = f"trace line 2: {rule} takes {least}{arity} arguments, got {arity + extra}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            DerivationTrace.read(lines)

    def test_learned_record_without_degree_is_rejected(self):
        with pytest.raises(ValueError, match="trace line 3: missing '>='"):
            DerivationTrace.read(["i 1", "s saturate 1", "l 2 : 1 x1"])

    @pytest.mark.parametrize(
        "ctext, message",
        [
            ("1 x+5 >= 1", "bad literal token 'x+5'"),
            ("1 ~~x1 >= 1", "bad literal token '~~x1'"),
            ("1 ~x >= 1", "bad literal token '~x'"),
            ("1 x1 1 >= 1", "odd token count in '1 x1 1 >= 1'"),
            ("1 x1 1 x2 1", "missing '>=' in '1 x1 1 x2 1'"),
            ("0 x1 >= 1", "weight must be >= 1, got 0 on x1"),
            ("1 x0 >= 1", "variable index must be >= 1, got literal 0"),
            ("1 x1 1 x1 >= 1", "variable x1 occurs twice"),
            ("1 x2 1 ~x2 >= 1", "variable x2 occurs twice"),
            ("1 x1 >= 0", "degree must be >= 1, got 0"),
        ],
    )
    def test_invalid_learned_constraint_is_rejected_with_its_message(self, ctext, message):
        lines = ["i 1", f"l 1 : {ctext}"]
        with pytest.raises(ValueError, match=f"^{re.escape(f'trace line 2: {message}')}$"):
            DerivationTrace.read(lines)

    @pytest.mark.parametrize(
        "ctext, terms, degree",
        [
            ("1 x3 2 ~x1 >= 2", ((-1, 2), (3, 1)), 2),
            (" 1  x1   1 x2  >=  1", ((1, 1), (2, 1)), 1),
            ("+3 x1 1 x2 >= +3", ((1, 3), (2, 1)), 3),
            ("1 x01 1 ~x002 >= 1", ((1, 1), (-2, 1)), 1),
            ("03 x2 1 x10 >= 2", ((2, 3), (10, 1)), 2),
            (">= 1", (), 1),
            ("2 ~x5 1 x4 3 x2 >= 01", ((2, 3), (4, 1), (-5, 2)), 1),
        ],
        ids=["out-of-order", "runs-of-spaces", "plus-signs", "leading-zero-index", "leading-zero-weight",
             "empty-unspaced", "mixed"],
    )
    def test_valid_text_outside_the_written_form_is_read(self, ctext, terms, degree):
        assert DerivationTrace.read([f"l 1 : {ctext}"]).learned == [(1, core.Constraint(terms, degree))]

    @pytest.mark.parametrize("respell", ["reversed", "spaces", "plus", "zeros"])
    def test_respelled_real_trace_reads_the_same_and_verifies(self, respell):
        instance = php_instance(4, 3)
        text = trace_text(solve_with_trace(instance, "weaken-ineffective-both").trace)
        lines = []
        for line in text.splitlines():
            head, sep, ctext = line.partition(" : ")
            if sep:
                left, _, degree = ctext.partition(">= ")
                tokens = left.split()
                pairs = list(zip(tokens[::2], tokens[1::2]))
                if respell == "reversed":
                    pairs.reverse()
                elif respell == "plus":
                    pairs = [(f"+{w}", lit) for w, lit in pairs]
                elif respell == "zeros":
                    pairs = [(w, lit.replace("x", "x0")) for w, lit in pairs]
                gap = "  " if respell == "spaces" else " "
                line = head + sep + "".join(f"{w}{gap}{lit}{gap}" for w, lit in pairs) + f">={gap}{degree}"
            lines.append(line)
        assert lines != text.splitlines()
        again = DerivationTrace.read(lines)
        assert again.learned == DerivationTrace.read(text.splitlines()).learned
        assert verify_trace(instance, again)

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    @pytest.mark.parametrize("name", ["php-4-3", "balanced-0"])
    def test_every_strategy_round_trips_through_text(self, name, strategy):
        instance = php_instance(4, 3) if name == "php-4-3" else balanced_instance(30, 120, 0, "test")
        trace = solve(instance, SolverConfig(strategy=strategy, conflict_budget=300, emit_trace=True)).trace
        assert trace.steps
        text = trace_text(trace)
        assert trace_text(trace) == text
        again = DerivationTrace.read(io.StringIO(text))
        assert again.inputs == trace.inputs
        assert [tuple(st) for st in again.steps] == [tuple(st) for st in trace.steps]
        assert (again.learned, again.final) == (trace.learned, trace.final)
        written = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("*"))
        assert trace_text(again) == written

    @pytest.mark.parametrize("rule", ["cancel", "weaken", "saturate"])
    def test_truncated_step_of_a_real_trace_is_rejected(self, rule):
        instance = php_instance(4, 3)
        result = solve_with_trace(instance, "weaken-ineffective-both")
        lines = trace_text(result.trace).splitlines()
        index = next(i for i, l in enumerate(lines) if l.split()[:2] == ["s", rule])
        tokens = lines[index].split()
        # A weaken step's literals are a run of any length: it loses them all.
        lines[index] = " ".join(tokens[:3] if rule == "weaken" else tokens[:-1])
        with pytest.raises(ValueError, match=f"trace line {index + 1}: {rule} takes"):
            verify_trace(instance, DerivationTrace.read(lines))


class TestVerify:
    def test_unsat_pigeonhole_trace_verifies(self):
        for strategy in ("gen-res", "rs-both", "multiply-weaken"):
            instance = php_instance(3, 2)
            result = solve_with_trace(instance, strategy)
            assert result.status == UNSAT
            check = verify_trace(instance, result.trace)
            assert check, check.error
            assert check.steps_checked == len(result.trace.steps)

    @pytest.mark.parametrize("token", [0, -1], ids=["weight", "degree"])
    def test_tampered_learned_constraint_is_caught_by_its_id(self, token):
        instance = php_instance(3, 2)
        result = solve_with_trace(instance)
        lines = trace_text(result.trace).splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith("l"))
        head, _, ctext = lines[index].partition(" : ")
        parts = ctext.split()
        parts[token] = str(int(parts[token]) + 1)
        lines[index] = head + " : " + " ".join(parts)
        check = verify_trace(instance, DerivationTrace.read(iter(lines)))
        assert not check
        assert check.error == f"replay mismatch for learned id {head.split()[1]}"
        assert check.steps_checked == len(result.trace.steps)

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["i 1"], "input count mismatch: trace has 1, instance has 2"),
            (["i 2", "l 5 : 1 x1 >= 1"], "learned id 5 was never derived"),
            (["i 2", "f 7"], "final id 7 was never derived"),
            (["i 2", "l 0 : 1 x1 >= 1"], "learned id 0 was never derived"),
            (["i 2", "l -1 : 1 x1 >= 1"], "learned id -1 was never derived"),
            (["i 2", "f 0"], "final id 0 was never derived"),
            (["i 2", "f -1"], "final id -1 was never derived"),
        ],
        ids=["input-count", "learned", "final", "learned-zero", "learned-negative", "final-zero", "final-negative"],
    )
    def test_unknown_or_missing_ids_are_rejected(self, lines, error):
        instance = parse_opb("+1 x1 +1 x2 >= 1 ;\n+1 x1 -1 x2 >= 0 ;\n")
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check
        assert check.error == error

    def test_input_mismatch_detected(self):
        instance = php_instance(3, 2)
        result = solve_with_trace(instance)
        other = php_instance(3, 2)
        other.constraints[0] = con("a c >= 1")
        assert not verify_trace(other, result.trace)

    @pytest.mark.parametrize("ref", [3, 2, 0, -1], ids=["later-id", "own-id", "zero", "negative"])
    def test_forward_reference_rejected(self, ref):
        # The step's own id is 2; a reference must name an id below it.
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        lines = ["i 1", f"s saturate {ref}"]
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check
        assert check.error == f"step 0: reference to unknown id {ref}"

    def test_unsat_claim_needs_root_conflict(self):
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        lines = ["i 1", "f 1"]
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check and "not confirmed" in check.error

    def test_root_conflict_found_on_a_later_pass(self):
        # In row order, the first pass only assigns a from the unit row; the
        # second pass propagates ~b from the first row and finds the second
        # row false.  Without the unit row nothing propagates.
        rows = [con("~a ~b >= 1"), con("~a b >= 1"), con("a >= 1")]
        instance = ParsedInstance(declared_vars=2, constraints=rows)
        check = verify_trace(instance, DerivationTrace.read(["i 3", "f 1"]))
        assert check, check.error
        instance = ParsedInstance(declared_vars=2, constraints=rows[:2])
        check = verify_trace(instance, DerivationTrace.read(["i 2", "f 1"]))
        assert not check
        assert check.error == "unsatisfiability claim not confirmed by root-level propagation"

    def test_learned_constraint_false_on_its_own(self):
        # The four clauses over a, b propagate nothing at the root; the
        # learned empty constraint ">= 1" is the conflict by itself.
        inputs = [con("a b >= 1"), con("a ~b >= 1"), con("~a b >= 1"), con("~a ~b >= 1")]
        instance = ParsedInstance(declared_vars=2, constraints=list(inputs))
        trace = DerivationTrace(len(inputs))
        rows = list(zip(inputs, range(1, len(inputs) + 1)))

        def derive(rule, args, params):
            """Apply a rule to (constraint, id) pairs; returns the output's pair."""
            out = REFERENCE_RULES[rule](*(c for c, _ in args), *params)
            return out, trace.record(rule, (*(i for _, i in args), *params))

        a, b = 1, 2
        pos = derive("saturate", (derive("cancel", (rows[0], rows[2]), (a,)),), ())
        neg = derive("saturate", (derive("cancel", (rows[1], rows[3]), (a,)),), ())
        empty, empty_id = derive("cancel", (pos, neg), (b,))
        assert empty.to_text() == " >= 1"
        unclaimed = trace_text(trace) + f"f {empty_id}\n"
        check = verify_trace(instance, DerivationTrace.read(io.StringIO(unclaimed)))
        assert not check and "not confirmed" in check.error
        trace.learned.append((empty_id, empty))
        trace.final = empty_id
        check = verify_trace(instance, DerivationTrace.read(io.StringIO(trace_text(trace))))
        assert check, check.error
        assert check.steps_checked == 5

    def test_unsatisfiable_row_is_the_final_conflict(self):
        # The first row normalizes to the empty constraint, which root
        # propagation finds conflicting before anything is assigned.
        instance = parse_opb("+1 x1 >= 2 ;\n+1 x2 +1 x3 >= 1 ;\n")
        result = solve_with_trace(instance)
        assert result.status == UNSAT
        assert result.stats.conflicts == 1
        text = trace_text(result.trace)
        assert text == "i 2\nf 1\n"
        assert instance.constraints[result.trace.final - 1] == core.Constraint((), 1)
        check = verify_trace(instance, DerivationTrace.read(io.StringIO(text)))
        assert check, check.error

    def test_tautological_step_is_a_replay_error(self):
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        lines = ["i 1", "s weaken 1 1"]
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check
        assert check.error == "step 0: replay error: degree must be >= 1, got 0"

    def test_empty_trace_for_sat_instance(self):
        instance = ParsedInstance(declared_vars=1, constraints=[con("a >= 1")])
        result = solve_with_trace(instance)
        assert result.status == SAT
        assert verify_trace(instance, result.trace)

    def test_sat_run_with_learning_verifies(self):
        count = 0
        for seed in range(30):
            instance = random_instance(8, 12, 6, 3000 + seed)
            result = solve_with_trace(instance, "partial-rs-both")
            check = verify_trace(instance, result.trace)
            assert check, check.error
            if result.status == SAT and result.trace.steps:
                count += 1
        assert count > 3

    def test_multiply_weaken_fallbacks_are_noted(self):
        instance = php_instance(6, 5)
        result = solve_with_trace(instance, "multiply-weaken")
        assert result.status == UNSAT and result.stats.fallbacks == 21
        text = trace_text(result.trace)
        notes = [line for line in text.splitlines() if line.startswith("*")]
        assert len(notes) == result.stats.fallbacks
        counts = []
        for line in notes:
            head, _, count = line.rpartition(" after ")
            assert head == "* multiply-weaken fallback" and count.endswith(" steps")
            counts.append(int(count.removesuffix(" steps")))
        assert counts == sorted(counts)
        assert counts[-1] <= len(result.trace.steps)
        check = verify_trace(instance, DerivationTrace.read(io.StringIO(text)))
        assert check, check.error

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize(
        "rule, n_inputs, n_params",
        [
            ("cancel", 2, 1),
            ("weaken", 1, 1),
            ("pweaken", 1, 2),
            ("saturate", 1, 0),
            ("divide", 1, 1),
            ("multiply", 1, 1),
        ],
    )
    def test_wrong_argument_count_in_memory_fails_the_check(self, rule, n_inputs, n_params, extra):
        instance = php_instance(2, 1)
        trace = solve_with_trace(instance).trace
        arity = n_inputs + n_params
        args = (1,) * (arity + extra)
        trace.steps.append((rule, args))
        index = len(trace.steps) - 1
        check = verify_trace(instance, trace)
        assert not check
        if rule == "weaken" and extra > 0:
            # A run's count is accepted: the step weakens x1 of row 1 twice.
            assert check.error == f"step {index}: replay error: literal x1 is absent"
        else:
            least = "at least " if rule == "weaken" else ""
            assert check.error == f"step {index}: {rule} takes {least}{arity} arguments, got {arity + extra}"
        assert check.steps_checked == index

    @pytest.mark.parametrize(
        "garbled",
        ["b c >= 2", "2b c >= 1", "b >= 1", "b c d >= 1", "b ~c >= 1"],
        ids=["degree", "weight", "dropped", "added", "negated"],
    )
    def test_in_memory_learned_constraint_must_equal_its_replay(self, garbled):
        inputs = [con("a b >= 1"), con("~a c >= 1")]
        instance = ParsedInstance(declared_vars=4, constraints=list(inputs))
        trace = DerivationTrace(len(inputs))
        out = cancel(*inputs, 1)
        assert out == con("b c >= 1")
        trace.learned.append((trace.record("cancel", (1, 2, 1)), out))
        assert verify_trace(instance, trace)
        trace.learned[0] = (3, con(garbled))
        check = verify_trace(instance, trace)
        assert not check
        assert check.error == "replay mismatch for learned id 3"
        assert check.steps_checked == 1

    def test_truthiness_of_check_result(self):
        assert TraceCheck()
        assert not TraceCheck("why")


class TestCheckerRobustness:
    """Every crafted trace is a line-numbered ValueError or a failed check."""

    # Rows 1 and 2; a step `s multiply 1 1` makes id 3, equal to row 1, so
    # each case runs once on an instance row and once on a step's output.
    ROWS = [con("a 2b >= 2"), con("~a c >= 1")]

    def check(self, *steps, through_step=False):
        instance = ParsedInstance(declared_vars=3, constraints=list(self.ROWS))
        lines = ["i 2"]
        if through_step:
            lines.append("s multiply 1 1")
            steps = [step.replace("{first}", "3") for step in steps]
        else:
            steps = [step.replace("{first}", "1") for step in steps]
        return verify_trace(instance, DerivationTrace.read([*lines, *steps]))

    @pytest.mark.parametrize("through_step", [False, True], ids=["row", "step"])
    @pytest.mark.parametrize(
        "step, error",
        [
            ("s cancel {first} {first} 1", "pivot x1 must occur with opposite polarities"),
            ("s cancel {first} 1 1", "pivot x1 must occur with opposite polarities"),
            ("s cancel {first} 2 2", "pivot x2 must occur in both constraints"),
            ("s cancel {first} 2 3", "pivot x3 must occur in both constraints"),
            ("s cancel {first} 2 0", "pivot x0 must occur in both constraints"),
            ("s weaken {first} 3", "literal x3 is absent"),
            ("s weaken {first} -1", "literal ~x1 is absent"),
            ("s pweaken {first} -2 1", "literal ~x2 is absent"),
            ("s pweaken {first} 2 0", "eps must be in 1..2, got 0"),
            ("s pweaken {first} 2 -1", "eps must be in 1..2, got -1"),
            ("s pweaken {first} 2 3", "eps must be in 1..2, got 3"),
            ("s divide {first} 0", "divisor must be >= 1, got 0"),
            ("s divide {first} -2", "divisor must be >= 1, got -2"),
            ("s multiply {first} 0", "multiplier must be >= 1, got 0"),
            ("s multiply {first} -3", "multiplier must be >= 1, got -3"),
            ("s weaken {first} 2", "degree must be >= 1, got 0"),
        ],
        ids=["same-id-twice", "same-polarity", "pivot-absent-second", "pivot-absent-both", "pivot-zero",
             "weaken-absent", "weaken-negated", "pweaken-absent", "eps-zero", "eps-negative", "eps-above",
             "divisor-zero", "divisor-negative", "multiplier-zero", "multiplier-negative", "degree-zero"],
    )
    def test_a_rule_outside_its_domain_is_a_replay_error(self, step, error, through_step):
        check = self.check(step, through_step=through_step)
        index = 1 if through_step else 0
        assert not check
        assert check.error == f"step {index}: replay error: {error}"
        assert check.steps_checked == index

    @pytest.mark.parametrize("ref", [5, 4, 0, -1], ids=["forward", "self", "zero", "negative"])
    def test_a_forward_or_self_reference_is_rejected(self, ref):
        # The checked step's own id is 4.
        check = self.check(f"s cancel {{first}} {ref} 1", through_step=True)
        assert not check and check.error == f"step 1: reference to unknown id {ref}"

    def test_an_input_keeps_its_value_after_a_step(self):
        # A step rewrites a copy of its first input, so a later step or
        # learned record naming id 3 reads its replayed value.
        assert self.check("s saturate {first}", "s divide 4 2", "l 3 : 1 x1 2 x2 >= 2", through_step=True)
        assert self.check("s saturate {first}", "s divide 3 2", "l 3 : 1 x1 2 x2 >= 2", through_step=True)
        check = self.check("s divide {first} 2", "l 3 : 1 x1 1 x2 >= 1", through_step=True)
        assert not check and check.error == "replay mismatch for learned id 3"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_changed_integer_is_an_error_or_a_verdict(self, data):
        text = php_trace_text()
        spans = [m.span() for m in re.finditer(r"-?[0-9]+", text)]
        start, end = data.draw(st.sampled_from(spans))
        old = int(text[start:end])
        value = data.draw(st.one_of(st.integers(-3, 3).map(lambda d: old + d), st.integers(-(2**70), 2**70)))
        assume(str(value) != text[start:end])
        changed = text[:start] + str(value) + text[end:]
        try:
            trace = DerivationTrace.read(changed.splitlines())
        except ValueError as exc:
            assert re.match(r"trace line [0-9]+: ", str(exc))
            return
        assert isinstance(verify_trace(php_instance(5, 4), trace), TraceCheck)


class TestLiveValues:
    """The checker rewrites a value in place at its last use and releases it;
    each case here returns the check that keeping a copy of every id returns."""

    # Rows 1 and 2: id 3 onwards are steps.
    ROWS = [con("a 2b >= 2"), con("~a c >= 1")]

    def check(self, *lines):
        instance = ParsedInstance(declared_vars=3, constraints=list(self.ROWS))
        check = verify_trace(instance, DerivationTrace.read(["i 2", *lines]))
        assert instance.constraints == self.ROWS
        return check

    def test_an_id_that_two_later_steps_name(self):
        # divide is id 3's first use, saturate its last: only the last may rewrite it.
        steps = ["s multiply 1 2", "s divide 3 2", "s saturate 3"]
        learned = ["l 4 : 1 x1 2 x2 >= 2", "l 5 : 2 x1 4 x2 >= 4"]
        assert self.check(*steps, *learned) == TraceCheck(None, 3)
        # The same for a row: divide rewrites a copy of row 1, multiply the row itself.
        check = self.check("s divide 1 2", "s multiply 1 2", "l 3 : 1 x1 1 x2 >= 1", "l 4 : 2 x1 4 x2 >= 4")
        assert check == TraceCheck(None, 2)
        check = self.check(*steps, "l 5 : 1 x1 2 x2 >= 2")
        assert check == TraceCheck("replay mismatch for learned id 5", 3)

    @pytest.mark.parametrize("first", [1, 3], ids=["row", "step"])
    def test_a_cancel_that_names_one_id_twice(self, first):
        # Its last use and its only one: the second input still reads the value.
        head = ["s multiply 1 1"] if first == 3 else []
        index = len(head)
        check = self.check(*head, f"s cancel {first} {first} 1")
        assert check == TraceCheck(f"step {index}: replay error: pivot x1 must occur with opposite polarities", index)
        check = self.check(*head, f"s cancel {first} {first} 3")
        assert check == TraceCheck(f"step {index}: replay error: pivot x3 must occur in both constraints", index)

    def test_a_learned_id_and_the_final_id_that_a_later_step_names(self):
        # Learned id 3's last use as an input is step 2; id 4's is step 3.
        lines = ["s cancel 1 2 1", "s multiply 1 2", "s divide 3 2", "s cancel 4 2 1"]
        learned = ["l 3 : 2 x2 1 x3 >= 2", "l 6 : 4 x2 2 x3 >= 4"]
        assert self.check(*lines, *learned) == TraceCheck(None, 4)
        check = self.check(*lines, "l 3 : 2 x2 1 x3 >= 3", learned[1])
        assert check == TraceCheck("replay mismatch for learned id 3", 4)
        # Final id 3's last use as an input is step 1.
        instance = ParsedInstance(declared_vars=1, constraints=[con("a >= 1"), con("~a >= 1")])
        lines = ["i 2", "s cancel 1 2 1", "s multiply 3 2", "l 4 : >= 2", "f 3"]
        assert verify_trace(instance, DerivationTrace.read(lines)) == TraceCheck(None, 2)
        lines[-1] = "f 5"
        assert verify_trace(instance, DerivationTrace.read(lines)) == TraceCheck("final id 5 was never derived", 2)

    def test_a_row_named_by_many_steps(self):
        # Row 1 is every multiply's first input and row 2 every cancel's second one.
        steps, learned = [], []
        for k in range(1, 9):
            steps.append(f"s multiply 1 {k}")
            learned.append(f"l {2 + len(steps)} : {k} x1 {2 * k} x2 >= {2 * k}")
            steps.append(f"s cancel {2 + len(steps)} 2 1")
            learned.append(f"l {2 + len(steps)} : {2 * k} x2 {k} x3 >= {2 * k}")
        assert self.check(*steps, *learned) == TraceCheck(None, 16)
        # Two more steps make each row's last use a first input, rewritten in place.
        check = self.check(*steps, "s saturate 2", "s saturate 1", *learned, "l 18 : 1 x1 2 x2 >= 3")
        assert check == TraceCheck("replay mismatch for learned id 18", 18)

    def test_a_long_chain_holds_one_value(self):
        # 2,000 steps over one 50-literal row: a copy per id would hold
        # about 4.5 MB, the live chain one dict.
        row = core.Constraint(tuple((v, v) for v in range(1, 51)), 100)
        instance = ParsedInstance(declared_vars=50, constraints=[row])
        trace = DerivationTrace(1)
        last = 1
        for k in range(2000):
            last = trace.record("multiply" if k % 2 == 0 else "divide", (last, 2))
        trace.learned.append((last, row))
        tracemalloc.start()
        try:
            check = verify_trace(instance, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check == TraceCheck(None, 2000)
        assert peak < 1_000_000


class TestWeakenRuns:
    """A ``weaken`` step names one input and one or more literals, and the
    checker weakens them in turn."""

    INSTANCE = ParsedInstance(declared_vars=4, constraints=[con("a b 2c d >= 4")])
    # Step 0, on line 3, weakens a: id 2 is b 2c d >= 3.
    HEAD = ["i 1", "* a note", "s weaken 1 1"]

    def test_a_run_replays_as_single_weakenings_in_turn(self):
        single = [*self.HEAD, "s weaken 2 2", "s weaken 3 4", "l 4 : 2 x3 >= 1"]
        run = ["i 1", "s weaken 1 1 2 4", "l 2 : 2 x3 >= 1"]
        for lines in (single, run):
            check = verify_trace(self.INSTANCE, DerivationTrace.read(lines))
            assert check, check.error

    @pytest.mark.parametrize(
        "step, error",
        [
            ("s weaken 2", "weaken takes at least 2 arguments, got 1"),
            ("s weaken 2 2 -3 4", "replay error: literal ~x3 is absent"),
            ("s weaken 2 2 4 2", "replay error: literal x2 is absent"),
            ("s weaken 2 2 3 4", "replay error: degree must be >= 1, got -1"),
        ],
        ids=["no-literal", "absent-in-the-middle", "repeated", "to-a-tautology"],
    )
    def test_a_bad_run_is_rejected_at_its_line_and_step(self, step, error):
        lines = [*self.HEAD, step]
        if error.startswith("replay error"):
            check = verify_trace(self.INSTANCE, DerivationTrace.read(lines))
            assert (check.error, check.steps_checked) == (f"step 1: {error}", 1)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'trace line 4: {error}')}$"):
                DerivationTrace.read(lines)
        # In memory, the step reaches the checker without the reader's check.
        trace = DerivationTrace.read(self.HEAD)
        trace.steps.append(("weaken", tuple(map(int, step.split()[2:]))))
        check = verify_trace(self.INSTANCE, trace)
        assert (check.error, check.steps_checked) == (f"step 1: {error}", 1)


def names_in(module: str) -> set[str]:
    """Every name a package module's source binds or reads: its imports,
    its bare names and its attributes of a name ``core``."""
    tree = ast.parse((ROOT / "src" / "pbsolve" / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "core":
            names.add(node.attr)
    return names


class TestRuleHomes:
    """The checker replays with :mod:`pbsolve.core`'s rule functions, and
    the solver derives with its own arithmetic."""

    RULE_FUNCTIONS = {apply.__name__ for apply, _, _ in RULES.values()}

    def test_core_holds_every_rule_the_benchmark_spans_wrap(self):
        # perfbench/spans.py wraps ``core.<name>`` for each name in its
        # CORE_RULES through inspect.getattr_static, which raises on a
        # missing name; the tuple is read from source, without perfbench's
        # numpy import.
        tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
        [wrapped] = [
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CORE_RULES"]
        ]
        found = {name: inspect.getattr_static(core, name) for name in wrapped}
        assert all(inspect.isfunction(apply) for apply in found.values())
        dispatched = {("partial_weaken" if rule == "pweaken" else rule): apply for rule, (apply, _, _) in RULES.items()}
        assert dispatched == found

    def test_the_checker_names_every_rule_function(self):
        assert self.RULE_FUNCTIONS <= names_in("trace")

    def test_the_checker_prices_its_own_slacks(self):
        # Gen-res's guard prices with core.slack; the root-conflict check must not share it.
        assert "slack" not in names_in("trace")
        tree = ast.parse((ROOT / "src" / "pbsolve" / "trace.py").read_text(encoding="utf-8"))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "core"
            for alias in node.names
        }
        assert imported == self.RULE_FUNCTIONS | {"Constraint"}

    @pytest.mark.parametrize("module", ["analysis", "solver", "propagation"])
    def test_the_solver_names_no_rule_function(self, module):
        names = names_in(module)
        assert "core" not in names
        assert names & self.RULE_FUNCTIONS == set()
