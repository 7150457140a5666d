"""Instance-generator tests."""

import hashlib
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

    @pytest.mark.parametrize(
        "settings, digest",
        [
            ((8, 12, 10, 42), "d9c2fd4a192ad66862f347eb3e27b7cc3c5f2528bb5bc168575b320be4bb6018"),
            ((30, 120, 20, 1), "aa63d3fe8dbdc20fa73d684ac0ce3fc05b6b92098d8670b532e9b3e2bd78ceaf"),
            ((5, 40, 3, 7), "865f2b207e53d8b67f78b8c1465f0c5d0ea5acb2b2d18afddaebde6939d327c0"),
            ((2, 6, 1, 0), "70d3022e0570d19b3506eb222e26c3d2147c0e68fec33c4501a76e70d381ab44"),
            ((60, 200, 1000, 9), "68c445675c04323f0ff1d66f27fc740f1855fbbf56c3f1d29eee5d5194f4f300"),
        ],
    )
    def test_written_text_is_pinned(self, settings, digest):
        # `pbsolve generate random` and many tests build instances with this
        # generator, so its text must not move with how rows are built.
        buf = io.StringIO()
        write_opb(random_instance(*settings), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

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
