"""Parser, writer and solution-format tests."""

import dataclasses
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pbsolve import opb
from pbsolve.core import Constraint, normalize
from pbsolve.generators import php_instance
from pbsolve.opb import (
    OpbSyntaxError,
    ParsedInstance,
    SAT,
    UNKNOWN,
    UNSAT,
    format_solution,
    parse_opb,
    write_opb,
)
from pbsolve.solver import solve
from helpers import con, random_instance


class TestParse:
    def test_basic_constraint(self):
        inst = parse_opb("+5 x1 +4 x2 +1 x3 +1 x4 >= 6 ;\n")
        assert inst.constraints == [con("5a 4b c d >= 6")]

    def test_equality_splits_into_two(self):
        inst = parse_opb("+1 x1 +1 x2 = 1 ;\n")
        assert inst.constraints == [con("a b >= 1"), con("~a ~b >= 1")]

    def test_negative_weight_normalizes(self):
        inst = parse_opb("-3 x1 +2 x2 >= -1 ;\n")
        # Saturated canonical form of 3~x1 + 2x2 >= 2.
        assert inst.constraints == [con("2~a 2b >= 2")]

    def test_header_and_comments(self):
        text = "* a comment\n* #variable= 6 #constraint= 2\n+1 x1 >= 1 ;\n"
        inst = parse_opb(text)
        assert inst.declared_vars == 6
        assert inst.nvars == 6

    def test_every_variable_read_counts_in_nvars(self):
        # A row that normalization drops still names its variables, and a
        # row with no terms names none.
        assert parse_opb("+1 x1 >= 0 ;\n").nvars == 1
        text = "* #variable= 1 #constraint= 3\n+1 x1 >= 1 ;\n+1 x2 +1 x3 >= 0 ;\n>= 1 ;\n"
        inst = parse_opb(text)
        assert inst.constraints == [con("a >= 1"), Constraint((), 1)]
        assert inst.declared_vars == inst.nvars == 3
        assert parse_opb(">= 1 ;\n").nvars == 0
        # A header after the rows does not lower the count.
        assert parse_opb("+1 x5 >= 0 ;\n* #variable= 3 #constraint= 1\n").nvars == 5

    def test_nvars_counts_rows_above_the_declared_count(self):
        # nvars reads the rows as they stand: one named above declared_vars
        # counts, in a hand-built instance or one appended to after parsing.
        built = ParsedInstance(declared_vars=2, constraints=[con("a d >= 1")])
        assert built.nvars == 4
        built.constraints.append(con("a g >= 1"))
        assert built.nvars == 7
        assert ParsedInstance(declared_vars=5, constraints=[con("a >= 1")]).nvars == 5
        parsed = parse_opb("* #variable= 2 #constraint= 1\n+1 x4 >= 1 ;\n")
        assert parsed.declared_vars == parsed.nvars == 4
        parsed.constraints.append(con("~c ~i >= 1"))
        assert parsed.nvars == 9
        assert dataclasses.replace(parsed, constraints=[con("~j >= 1")]).nvars == 10

    def test_unsigned_weights_and_crlf(self):
        inst = parse_opb("1 x1 1 x2 >= 1 ;\r\n")
        assert inst.constraints == [con("a b >= 1")]

    def test_rows_end_at_newline_only(self):
        # A form feed is a blank between two tokens, not a row break, and a
        # vertical tab in a comment does not shift later line numbers.
        assert parse_opb("+1 x1 \x0c+1 x2 >= 1 ;").constraints == [con("a b >= 1")]
        with pytest.raises(OpbSyntaxError) as err:
            parse_opb("* c\x0b\n+1 x1 >= ;")
        assert err.value.line == 2

    def test_tautology_dropped_contradiction_is_the_empty_constraint(self):
        inst = parse_opb("+2 x1 +3 x2 >= 0 ;\n+1 x1 >= 2 ;\n")
        assert inst.constraints == [Constraint((), 1)]

    def test_objective_rejected_by_default(self):
        with pytest.raises(OpbSyntaxError) as err:
            parse_opb("min: +1 x1 ;\n+1 x1 >= 1 ;\n")
        assert err.value.line == 1

    def test_objective_skipped_with_flag(self):
        inst = parse_opb("min: +1 x1 ;\n+1 x1 >= 1 ;\n", allow_objective=True)
        assert inst.constraints == [con("a >= 1")]

    def test_nonlinear_term_rejected_with_position(self):
        with pytest.raises(OpbSyntaxError) as err:
            parse_opb("+1 x1 x2 >= 1 ;\n")
        assert err.value.line == 1
        assert err.value.column == 7

    def test_missing_terminator(self):
        with pytest.raises(OpbSyntaxError):
            parse_opb("+1 x1 >= 1\n")

    def test_bad_relation(self):
        with pytest.raises(OpbSyntaxError):
            parse_opb("+1 x1 <= 1 ;\n")

    def test_variable_without_coefficient(self):
        with pytest.raises(OpbSyntaxError):
            parse_opb("x1 >= 1 ;\n")

    def test_rejections_carry_positions(self):
        cases = ["?? >= 1 ;", "+1 x1 >= ;", "+1 x1 >= 1 ; junk", "+1 >= 1 ;", "+1 x0 >= 1 ;"]
        for text in cases:
            with pytest.raises(OpbSyntaxError) as err:
                parse_opb(text + "\n")
            assert err.value.line == 1
            assert err.value.column >= 1
        # Each terminator is a token, glued to the degree or not.
        for text, column in [("+1 x1 >= 1;;", 12), ("+1 x1 >= 1 ;;", 13)]:
            with pytest.raises(OpbSyntaxError, match="trailing tokens after ';'") as err:
                parse_opb(text + "\n")
            assert (err.value.line, err.value.column) == (1, column)


# One row per OpbSyntaxError message, each placed on line 3 after a comment
# and a blank line, indented and followed by blanks: (row, line, column,
# message).  A "missing ..." error points at the row's last non-blank
# character.
SYNTAX_ERRORS = [
    ("  min: +1 x1 ;  ", 3, 3, "objective lines are not supported (decision problems only)"),
    ("  +1 x1 <= 1 ;  ", 3, 9, "relation '<=' is not part of the OPB decision format"),
    ("  +1 x1 +2  ", 3, 9, "coefficient without a variable"),
    ("  +1 x1 +2 y3 >= 1 ;  ", 3, 12, "expected a variable token after coefficient, got 'y3'"),
    ("  +1 x1 +2 x0 >= 1 ;  ", 3, 12, "variable index must be >= 1"),
    ("  +1 x1 x2 >= 1 ;  ", 3, 9, "nonlinear term (two variable tokens in one term)"),
    ("  x1 >= 1 ;  ", 3, 3, "variable without a coefficient (nonlinear input?)"),
    ("  +1 x1 ?? >= 1 ;  ", 3, 9, "unexpected token '??'"),
    ("  +1 x1 >= x2 ;  ", 3, 12, "expected integer right-hand side, got 'x2'"),
    ("  +1 x1 >= 1 ; junk  ", 3, 16, "trailing tokens after ';'"),
    ("  +1 x1 >= 1 2 ;  ", 3, 14, "expected ';', got '2'"),
    ("  +1 x1 +2 x2  ", 3, 13, "missing relation"),
    ("  +1 x1 >=  ", 3, 10, "missing right-hand side"),
    ("  +1 x1 >= 1  ", 3, 12, "missing ';' terminator"),
]


@pytest.mark.parametrize("row, line, column, message", SYNTAX_ERRORS)
def test_every_syntax_error_keeps_its_message_and_position(row, line, column, message):
    with pytest.raises(OpbSyntaxError) as err:
        parse_opb("* c\n\n" + row + "\n")
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


class TestWrite:
    def test_round_trip_is_canonical_identity(self):
        inst = parse_opb("+5 x1 +4 x2 +1 x3 +1 x4 >= 6 ;\n+6 x2 +6 x3 +4 x5 >= 7 ;\n")
        buf = io.StringIO()
        write_opb(inst, buf)
        again = parse_opb(buf.getvalue())
        assert again.constraints == inst.constraints

    def test_negated_literals_round_trip(self):
        inst = ParsedInstance(constraints=[con("5~a 5b 4~c >= 5")], declared_vars=3)
        buf = io.StringIO()
        write_opb(inst, buf)
        text = buf.getvalue()
        assert "-5 x1" in text and "-4 x3" in text
        assert parse_opb(text).constraints == inst.constraints

    def test_empty_instance_writes_header_only(self):
        buf = io.StringIO()
        write_opb(ParsedInstance(declared_vars=0), buf)
        assert buf.getvalue() == "* #variable= 0 #constraint= 0\n"

    def test_contradiction_round_trips(self):
        inst = parse_opb("+1 x1 >= 2 ;\n+1 x2 >= 1 ;\n")
        assert inst.constraints == [Constraint((), 1), con("b >= 1")]
        buf = io.StringIO()
        write_opb(inst, buf)
        assert buf.getvalue().splitlines()[0] == "* #variable= 2 #constraint= 2"
        again = parse_opb(buf.getvalue())
        assert again.constraints == inst.constraints
        assert solve(again).status == UNSAT

    def test_two_unsatisfiable_rows_round_trip_as_two_rows(self):
        inst = parse_opb("+1 x1 >= 2 ;\n+1 x2 >= 1 ;\n-1 x3 >= 1 ;\n")
        buf = io.StringIO()
        write_opb(inst, buf)
        assert buf.getvalue().splitlines() == [
            "* #variable= 3 #constraint= 3",
            ">= 1 ;",
            "+1 x2 >= 1 ;",
            ">= 1 ;",
        ]
        again = parse_opb(buf.getvalue())
        assert again.constraints == [Constraint((), 1), con("b >= 1"), Constraint((), 1)]
        assert solve(again).status == UNSAT

    def test_php_round_trip_counts(self):
        inst = php_instance(4, 3)
        buf = io.StringIO()
        write_opb(inst, buf)
        again = parse_opb(buf.getvalue())
        assert len(again.constraints) == 4 + 3
        assert again.constraints == inst.constraints


class TestSolutionFormat:
    def test_sat_lists_every_variable(self):
        out = format_solution(SAT, {1: True, 2: False}, nvars=2)
        assert out == "s SATISFIABLE\nv x1 -x2"

    def test_sat_pads_declared_but_unused_variables(self):
        out = format_solution(SAT, {1: True}, nvars=3)
        assert out == "s SATISFIABLE\nv x1 -x2 -x3"

    def test_unsat_and_unknown(self):
        assert format_solution(UNSAT) == "s UNSATISFIABLE"
        assert format_solution(UNKNOWN) == "s UNKNOWN"

    def test_model_presence_matches_status(self):
        with pytest.raises(ValueError):
            format_solution(UNSAT, {1: True})
        with pytest.raises(ValueError):
            format_solution(SAT, None)


@given(st.text(alphabet="x123 +-~;>=*\n", max_size=60))
@settings(max_examples=300, deadline=None)
def test_parser_is_total_on_arbitrary_text(text):
    # Any rejection is an OpbSyntaxError carrying a 1-based position.
    try:
        parse_opb(text)
    except OpbSyntaxError as err:
        assert err.line >= 1 and err.column >= 1


@st.composite
def spelled_rows(draw):
    """One OPB row and whether it is in the spelling the row pattern takes.

    Coefficients are signed, unsigned or zero, indices repeat, and both carry
    leading zeros at times; the left side may be empty; blanks and tabs run
    between tokens and after the row, and ``;`` may be glued to the
    right-hand side.  Now and then two other tokens are glued, which the
    walk rejects.
    """
    blanks = st.text(alphabet=" \t", min_size=1, max_size=3)
    tokens, plain = [], True
    for _ in range(draw(st.integers(0, 5))):
        sign = draw(st.sampled_from(["", "+", "-"]))
        zeros, index_zeros = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        plain = plain and not index_zeros
        tokens.append(f"{sign}{'0' * zeros}{draw(st.integers(0, 12))}")
        tokens.append(f"x{'0' * index_zeros}{draw(st.integers(1, 6))}")
    tokens.append(draw(st.sampled_from([">=", "="])))
    rhs = f"{draw(st.sampled_from(['', '+', '-']))}{draw(st.integers(0, 30))}"
    row = draw(st.text(alphabet=" \t", max_size=2))
    for token in tokens:
        glued = draw(st.integers(0, 9)) == 0
        plain = plain and not glued
        row += token + ("" if glued else draw(blanks))
    row += rhs + draw(st.sampled_from(["", " ", "\t"])) + ";" + draw(st.text(alphabet=" \t", max_size=3))
    return row, plain


def _read(text):
    try:
        inst = parse_opb(text)
    except OpbSyntaxError as err:
        return str(err)
    return inst.constraints, inst.declared_vars


@given(st.lists(spelled_rows(), min_size=1, max_size=4))
@settings(max_examples=400, deadline=None)
def test_row_pattern_agrees_with_the_token_walk(rows):
    # A row in the usual spelling takes the one-match path, any other the
    # walk; with the pattern matching nothing, the walk reads every row and
    # gives the same constraints, declared count or error.
    for row, plain in rows:
        assert bool(opb._ROW.fullmatch(row)) == plain
    text = "\n".join(row for row, _ in rows) + "\n"
    got = _read(text)
    with mock.patch.object(opb, "_ROW", re.compile(r"(?!)")):
        assert _read(text) == got


def test_a_matched_row_never_reaches_the_token_walk():
    class Refuse:
        def findall(self, line):
            raise AssertionError(f"token walk reached for {line!r}")

    buf = io.StringIO()
    write_opb(php_instance(3, 2), buf)
    text = buf.getvalue() + "\t-1 x1\t+2 x3 = -1;  \n>= 1 ;\n"
    expected = parse_opb(text)
    with mock.patch.object(opb, "_TOKEN", Refuse()):
        assert parse_opb(text) == expected
        with pytest.raises(AssertionError, match="token walk reached"):
            parse_opb("+1 x01 >= 1 ;\n")


def _refuse_normalize(*args):
    raise AssertionError(f"normalize reached for {args!r}")


# Rows in the pattern's spelling over distinct variables, each with the
# constraints it must give.
SORTED_ROWS = [
    ("+3 x4 -2 x1 +1 x3 >= 2 ;", [con("3d 2~a c >= 4")]),
    ("\t+1 x3  -1 x2\t+0 x1 = 0 ;", [con("c ~b >= 1"), con("~c b >= 1")]),
    (">= 1 ;", [Constraint((), 1)]),
    (">= 0 ;", []),
    ("+0 x2 +2 x1 >= 1 ;", [con("a >= 1")]),
    ("+0 x5 >= 0 ;", []),
    # Weights above the degree come out saturated.
    ("+1 x2 +5 x1 +7 x3 >= 2 ;", [con("2a b 2c >= 2")]),
    ("-7 x3 +5 x1 >= -4 ;", [con("3a 3~c >= 3")]),
    ("-9 x2 >= -3 ;", [con("6~b >= 6")]),
]


@pytest.mark.parametrize("row, expected", SORTED_ROWS)
def test_a_matched_row_over_distinct_variables_never_reaches_normalize(row, expected):
    text = f"* #variable= 2 #constraint= 1\n{row}\n"
    plain = parse_opb(text)
    assert plain.constraints == expected
    with mock.patch.object(opb, "normalize", _refuse_normalize):
        assert parse_opb(text) == plain


def test_written_files_never_reach_normalize():
    buf = io.StringIO()
    write_opb(php_instance(4, 3), buf)
    for seed in range(20):
        write_opb(random_instance(8, 6, 9, seed), buf)
    text = buf.getvalue() + "\n".join(row for row, _ in SORTED_ROWS) + "\n"
    plain = parse_opb(text)
    with mock.patch.object(opb, "normalize", _refuse_normalize):
        assert parse_opb(text) == plain


def test_a_matched_row_that_repeats_a_variable_folds_through_normalize():
    calls = []

    def spy(*args):
        calls.append(args)
        return normalize(*args)

    row = "+1 x2 +2 x2 -1 x1 >= 1 ;"
    assert opb._ROW.fullmatch(row)
    with mock.patch.object(opb, "normalize", spy):
        inst = parse_opb(row + "\n")
    assert calls == [([(1, 2), (2, 2), (-1, 1)], ">=", 1)]
    assert inst.constraints == normalize([(1, 2), (2, 2), (-1, 1)], ">=", 1) == [con("~a 2b >= 2")]
    assert inst.declared_vars == 2
    # Opposite coefficients on one variable cancel, as in normalize.
    assert parse_opb("+2 x3 -2 x3 = 0 ;\n+1 x1 -1 x1 >= 1 ;\n") == ParsedInstance(
        declared_vars=3, constraints=normalize([(1, 1), (-1, 1)], ">=", 1)
    )


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_random_instances_round_trip_semantically(seed):
    inst = random_instance(5, 4, 6, seed)
    buf = io.StringIO()
    write_opb(inst, buf)
    again = parse_opb(buf.getvalue())
    assert again.constraints == inst.constraints
