"""Derivation-trace serialization and replay-checker tests."""

import io

import pytest

from pbsolve import core
from pbsolve.generators import php_instance, random_instance
from pbsolve.opb import ParsedInstance, SAT, UNSAT, parse_opb
from pbsolve.solver import SolverConfig, solve
from pbsolve.trace import RULES, DerivationTrace, RuleStep, TraceCheck, verify_trace
from helpers import con


def solve_with_trace(instance, strategy="gen-res"):
    result = solve(instance, SolverConfig(strategy=strategy, emit_trace=True))
    assert result.trace is not None
    return result


def trace_text(trace):
    buf = io.StringIO()
    trace.write(buf)
    return buf.getvalue()


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
        lines = ["i 1 1 x1 1 x2 >= 1", "s 2 saturate 1 : 1 x1 1 x2 >= 1", "l 2", "f 2"]
        plain = DerivationTrace.read(lines)
        commented = DerivationTrace.read(["* a note", "", *lines[:2], "   ", "*another", *lines[2:]])
        assert commented.inputs == plain.inputs
        assert commented.steps == plain.steps
        assert (commented.learned, commented.final) == (plain.learned, plain.final) == ([2], 2)

    def test_unknown_record_kind_is_rejected(self):
        with pytest.raises(ValueError, match=r"^trace line 2: unknown record kind 'x'$"):
            DerivationTrace.read(["i 1 1 x1 >= 1", "x 2"])

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
        lines = ["i 1 1 x1 1 x2 >= 1", f"s 2 {rule} {args} : 1 x1 >= 1"]
        message = f"trace line 2: {rule} takes {arity} arguments, got {arity + extra}"
        with pytest.raises(ValueError, match=message):
            DerivationTrace.read(lines)

    def test_step_without_degree_is_rejected(self):
        with pytest.raises(ValueError, match="trace line 2: missing '>='"):
            DerivationTrace.read(["i 1 1 x1 >= 1", "s 2 saturate 1"])

    @pytest.mark.parametrize("line", ["s", "s 5"])
    def test_step_without_rule_is_rejected(self, line):
        with pytest.raises(ValueError, match="trace line 1: "):
            DerivationTrace.read([line])

    @pytest.mark.parametrize("rule", ["cancel", "weaken", "saturate"])
    def test_truncated_step_of_a_real_trace_is_rejected(self, rule):
        instance = php_instance(4, 3)
        result = solve_with_trace(instance, "weaken-ineffective-both")
        lines = trace_text(result.trace).splitlines()
        index = next(i for i, l in enumerate(lines) if l.split()[:3:2] == ["s", rule])
        head, _, ctext = lines[index].partition(" : ")
        lines[index] = head.rsplit(" ", 1)[0] + " : " + ctext
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

    def test_tampered_weight_is_caught_at_its_step(self):
        instance = php_instance(3, 2)
        result = solve_with_trace(instance)
        lines = trace_text(result.trace).splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith("s"))
        head, _, ctext = lines[index].partition(" : ")
        parts = ctext.split()
        parts[0] = str(int(parts[0]) + 1)
        lines[index] = head + " : " + " ".join(parts)
        check = verify_trace(instance, DerivationTrace.read(iter(lines)))
        assert not check
        assert "replay mismatch" in check.error
        assert check.steps_checked == 0

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["i 1 1 x1 1 x2 >= 1", "i 1 1 x1 1 ~x2 >= 1"], "duplicate id 1"),
            (
                [
                    "i 1 1 x1 1 x2 >= 1",
                    "i 2 1 x1 1 ~x2 >= 1",
                    "s 3 cancel 1 2 2 : 2 x1 >= 1",
                    "s 3 saturate 1 : 1 x1 1 x2 >= 1",
                    "l 3",
                ],
                "step 1: duplicate id 3",
            ),
        ],
    )
    def test_reused_id_is_rejected(self, lines, error):
        instance = parse_opb("+1 x1 +1 x2 >= 1 ;\n+1 x1 -1 x2 >= 0 ;\n")
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check
        assert check.error == error

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["i 1 1 x1 1 x2 >= 1"], "input count mismatch: trace has 1, instance has 2"),
            (["i 1 1 x1 1 x2 >= 1", "i 2 1 x1 1 ~x2 >= 1", "l 5"], "learned id 5 was never derived"),
            (["i 1 1 x1 1 x2 >= 1", "i 2 1 x1 1 ~x2 >= 1", "f 7"], "final id 7 was never derived"),
        ],
        ids=["input-count", "learned", "final"],
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

    def test_forward_reference_rejected(self):
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        lines = ["i 1 1 x1 1 x2 >= 1", "s 2 saturate 3 : 1 x1 1 x2 >= 1"]
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check and "unknown id" in check.error

    def test_unsat_claim_needs_root_conflict(self):
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        lines = ["i 1 1 x1 1 x2 >= 1", "f 1"]
        check = verify_trace(instance, DerivationTrace.read(lines))
        assert not check and "not confirmed" in check.error

    def test_root_conflict_found_on_a_later_pass(self):
        # In row order, the first pass only assigns a from the unit row; the
        # second pass propagates ~b from the first row and finds the second
        # row false.  Without the unit row nothing propagates.
        rows = [con("~a ~b >= 1"), con("~a b >= 1"), con("a >= 1")]
        lines = [f"i {i} {c.to_text()}" for i, c in enumerate(rows, start=1)]
        instance = ParsedInstance(declared_vars=2, constraints=rows)
        check = verify_trace(instance, DerivationTrace.read([*lines, "f 1"]))
        assert check, check.error
        instance = ParsedInstance(declared_vars=2, constraints=rows[:2])
        check = verify_trace(instance, DerivationTrace.read([*lines[:2], "f 1"]))
        assert not check
        assert check.error == "unsatisfiability claim not confirmed by root-level propagation"

    def test_learned_constraint_false_on_its_own(self):
        # The four clauses over a, b propagate nothing at the root; the
        # learned empty constraint ">= 1" is the conflict by itself.
        inputs = [con("a b >= 1"), con("a ~b >= 1"), con("~a b >= 1"), con("~a ~b >= 1")]
        instance = ParsedInstance(declared_vars=2, constraints=list(inputs))
        trace = DerivationTrace()
        for c in inputs:
            trace.add_input(c)

        def derive(rule, args, params):
            out = getattr(core, rule)(*args, *params)
            i = trace.record(rule, (*map(trace.id_of, args), *params), out.terms, out.degree)
            trace.bind(out, i)
            return out

        a, b = 1, 2
        pos = derive("saturate", (derive("cancel", (inputs[0], inputs[2]), (a,)),), ())
        neg = derive("saturate", (derive("cancel", (inputs[1], inputs[3]), (a,)),), ())
        empty = derive("cancel", (pos, neg), (b,))
        assert empty.to_text() == " >= 1"
        unclaimed = trace_text(trace) + f"f {trace.id_of(empty)}\n"
        check = verify_trace(instance, DerivationTrace.read(io.StringIO(unclaimed)))
        assert not check and "not confirmed" in check.error
        trace.mark_learned(empty)
        trace.mark_final(empty)
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
        assert text == "i 1  >= 1\ni 2 1 x2 1 x3 >= 1\nf 1\n"
        assert dict(result.trace.inputs)[result.trace.final] == core.Constraint((), 1)
        check = verify_trace(instance, DerivationTrace.read(io.StringIO(text)))
        assert check, check.error

    def test_tautological_step_is_a_replay_error(self):
        instance = ParsedInstance(declared_vars=2, constraints=[con("a b >= 1")])
        lines = ["i 1 1 x1 1 x2 >= 1", "s 2 weaken 1 1 : 1 x2 >= 1"]
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
        step_id = max(i for i, _ in trace.inputs) + len(trace.steps) + 1
        out = con("a >= 1")
        trace.steps.append(RuleStep(step_id, rule, args, out.terms, out.degree))
        index = len(trace.steps) - 1
        check = verify_trace(instance, trace)
        assert not check
        assert check.error == f"step {index}: {rule} takes {arity} arguments, got {arity + extra}"
        assert check.steps_checked == index

    @pytest.mark.parametrize(
        "garble",
        [lambda terms: terms[::-1], lambda terms: (*terms, (4, 0))],
        ids=["terms-out-of-order", "zero-weight"],
    )
    def test_in_memory_output_must_match_the_replay_term_for_term(self, garble):
        # An in-memory step's output is never validated on its own: only
        # the comparison with the replay rejects a malformed term tuple.
        inputs = [con("a b >= 1"), con("~a c >= 1")]
        instance = ParsedInstance(declared_vars=4, constraints=list(inputs))
        trace = DerivationTrace()
        ids = tuple(trace.add_input(c) for c in inputs)
        out = RULES["cancel"][0](*inputs, 1)
        assert out.terms == ((2, 1), (3, 1))
        trace.record("cancel", (*ids, 1), out.terms, out.degree)
        assert verify_trace(instance, trace)
        trace.steps[0] = trace.steps[0]._replace(terms=garble(out.terms))
        check = verify_trace(instance, trace)
        assert not check
        assert check.error == "step 0: replay mismatch for id 3"

    def test_truthiness_of_check_result(self):
        assert TraceCheck()
        assert not TraceCheck("why")
