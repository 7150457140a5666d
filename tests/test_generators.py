"""Instance-generator tests."""

import hashlib
import io
import runpy
from pathlib import Path

import pytest

import pbsolve
from pbsolve.generators import balanced_instance, php_instance
from pbsolve.opb import SAT, UNSAT, parse_opb, write_opb
from helpers import brute_force_status, is_clause, literals, random_instance, total_weight

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def written(instance) -> str:
    buf = io.StringIO()
    write_opb(instance, buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "instance", [php_instance(5, 4), random_instance(30, 60, 10, 3), balanced_instance(30, 120, 3, "test")]
)
def test_nvars_matches_a_scan_of_every_term(instance):
    # nvars reads one term per row; it must be the count a scan of every
    # term of the same rows gives.
    scan = max({abs(lit) for c in instance.constraints for lit, _ in c.terms}, default=0)
    assert instance.nvars == max(instance.declared_vars, scan)


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


class TestBalanced:
    @pytest.mark.parametrize(
        "nvars, nconstraints, seed, tag",
        [(85, 357, 0, "long"), (30, 135, 1, "m0"), (70, 300, 4, "m7"), (10, 5, 39, "m2"), (30, 120, 2, "test")],
    )
    def test_equals_perfbench_parsed_text(self, nvars, nconstraints, seed, tag):
        # perfbench's copy of the family writes OPB text from its own draws;
        # the package draws the same rows, so its stored fingerprints do not
        # move when it imports the package's generator.
        theirs = runpy.run_path(str(WORKLOADS))["balanced_random"](nvars, nconstraints, seed, tag)
        ours = balanced_instance(nvars, nconstraints, seed, tag)
        parsed = parse_opb(theirs.opb)
        assert ours.name == theirs.name == f"rand-{tag}-{nvars}-{nconstraints}"
        assert ours.constraints == parsed.constraints
        assert ours.declared_vars == parsed.declared_vars == nvars

    @pytest.mark.parametrize(
        "settings, digest",
        [
            ((30, 120, 0, "test"), "db166bd1914a9736a53a49eb836424963f529e1cd3378ea47deb27ccfbd88419"),
            ((85, 357, 0, "long"), "54093a437330f85cfe42779ba70fe3e326c68fbcb83bd83b22ae2fae3a7ca541"),
            ((6, 1, 7, "cli"), "5824fc61486b1f1f73981eab63832f100bb9e36af4d1da7d3a7c0a2e5a1a23b3"),
            ((10, 40, 6, "cli"), "89b428e2f713d8b50d0c2e7fd012038d27a1852d3c1da686418268b4126e980e"),
        ],
    )
    def test_written_text_is_pinned(self, settings, digest):
        assert hashlib.sha256(written(balanced_instance(*settings)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_its_written_text_parsed_back(self, seed):
        instance = balanced_instance(30, 120, seed, "test")
        parsed = parse_opb(written(instance), name=instance.name)
        assert parsed == instance

    def test_rows_and_draws(self):
        instance = balanced_instance(30, 120, 0, "test")
        assert len(instance.constraints) == 120
        for c in instance.constraints:
            assert len(c.terms) == 6
            # A quarter of six weights in 1..10, rounded up, and built
            # through normalize, so saturated: no weight above the degree.
            assert 2 <= c.degree <= 15
            assert 1 <= c.max_weight <= min(10, c.degree)
        assert balanced_instance(30, 120, 0, "test") == instance
        assert balanced_instance(30, 120, 0, "other").constraints != instance.constraints
        assert balanced_instance(30, 120, 1, "test").constraints != instance.constraints

    def test_is_the_packages_one_random_family(self):
        assert "balanced_instance" in pbsolve.__all__
        assert "random_instance" not in pbsolve.__all__
        assert not hasattr(pbsolve.generators, "random_instance")

    @pytest.mark.parametrize(
        "nvars, nconstraints, message",
        [(5, 1, "nvars must be >= 6"), (0, 1, "nvars must be >= 6"), (6, 0, "nconstraints must be >= 1")],
    )
    def test_parameter_validation(self, nvars, nconstraints, message):
        with pytest.raises(ValueError, match=message):
            balanced_instance(nvars, nconstraints, 0, "test")
