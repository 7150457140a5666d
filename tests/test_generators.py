"""Instance-generator tests."""

import io
import itertools

import pytest

from pbsolve.generators import php_instance, random_instance
from pbsolve.opb import SAT, UNSAT, write_opb
from helpers import is_clause, literals, total_weight


def brute_force_status(instance):
    n = instance.nvars
    for values in itertools.product((False, True), repeat=n):
        total = dict(zip(range(1, n + 1), values))
        if all(c.satisfied_by(total) for c in instance.constraints):
            return SAT
    return UNSAT


class TestPigeonhole:
    def test_counts_by_construction(self):
        inst = php_instance(3, 2)
        assert len(inst.constraints) == 3 + 2
        assert inst.nvars == 6

    def test_structure(self):
        inst = php_instance(4, 3)
        per_pigeon = inst.constraints[:4]
        per_hole = inst.constraints[4:]
        assert all(is_clause(c) and len(c.terms) == 3 for c in per_pigeon)
        for c in per_hole:
            assert c.degree == 3 and len(c.terms) == 4
            assert all(l < 0 for l in literals(c))

    @pytest.mark.parametrize("holes", [1, 2, 3, 4])
    def test_one_more_pigeon_is_unsat(self, holes):
        assert brute_force_status(php_instance(holes + 1, holes)) == UNSAT

    def test_enough_holes_is_sat(self):
        assert brute_force_status(php_instance(3, 3)) == SAT

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            php_instance(0, 2)
        with pytest.raises(ValueError):
            php_instance(2, 0)


class TestRandom:
    def test_reproducible_byte_for_byte(self):
        first, second = (random_instance(8, 12, 10, 42) for _ in range(2))
        buffers = []
        for inst in (first, second):
            buf = io.StringIO()
            write_opb(inst, buf)
            buffers.append(buf.getvalue())
        assert buffers[0] == buffers[1]
        assert random_instance(8, 12, 10, 43).constraints != first.constraints

    def test_shape_and_initial_slack(self):
        for seed in range(30):
            inst = random_instance(8, 12, 10, seed)
            assert len(inst.constraints) == 12
            for c in inst.constraints:
                assert total_weight(c) >= c.degree
                assert all(1 <= w <= 10 for _, w in c.terms)
                assert max(abs(l) for l, _ in c.terms) <= 8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_instance(0, 1, 1, 0)
        with pytest.raises(ValueError):
            random_instance(1, 0, 1, 0)
        with pytest.raises(ValueError):
            random_instance(1, 1, 0, 0)
