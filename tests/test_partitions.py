"""Partition combinatorics, dimensions, characters, Kronecker multiplicities."""

import ast
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
import snfourier.partitions
import snfourier.yor as yor
from snfourier.errors import DegreeGuardError
from snfourier.perms import Permutation
from snfourier.partitions import (
    Partition,
    character,
    conjugacy_classes,
    diffusion_eigenvalue,
    enumerate_partitions,
    irrep_dimension,
    kronecker_multiplicity,
    transposition_character_ratio,
)


def parts_of(n):
    return [p.parts for p in enumerate_partitions(n)]


def test_enumeration_frozen_small():
    assert parts_of(1) == [(1,)]
    assert parts_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert parts_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumeration_reverse_lex_and_complete():
    for n in range(1, 11):
        seen = parts_of(n)
        assert len(seen) == len(set(seen)) == oracles.partition_count(n)
        assert all(sum(p) == n for p in seen)
        assert seen == sorted(seen, reverse=True)


def test_conjugate():
    assert Partition((3, 1)).conjugate().parts == (2, 1, 1)
    assert Partition((1,)).conjugate().parts == (1,)
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert lam.conjugate().conjugate() == lam


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_dimension_frozen():
    assert irrep_dimension(Partition((2, 1))) == 2
    for n in range(1, 9):
        assert irrep_dimension(Partition((n,))) == 1
        assert irrep_dimension(Partition((1,) * n)) == 1
    dims4 = {p.parts: irrep_dimension(p) for p in enumerate_partitions(4)}
    assert dims4 == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


def test_dimension_matches_tableau_recursion_and_square_sum():
    for n in range(1, 9):
        total = 0
        for lam in enumerate_partitions(n):
            d = irrep_dimension(lam)
            assert d == oracles.syt_count(lam.parts)
            total += d * d
        assert total == math.factorial(n)


def test_character_ratio_frozen():
    assert transposition_character_ratio(Partition((2, 1))) == 0
    for n in range(2, 9):
        assert transposition_character_ratio(Partition((n,))) == 1
        assert transposition_character_ratio(Partition((1,) * n)) == -1
    r31 = transposition_character_ratio(Partition((3, 1)))
    assert isinstance(r31, Fraction)
    assert r31 == Fraction(1, 3)


def test_character_ratio_range_and_conjugate_sign():
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            r = transposition_character_ratio(lam)
            assert -1 <= r <= 1
            # conjugation flips the transposition character's sign
            assert transposition_character_ratio(lam.conjugate()) == -r


def test_diffusion_eigenvalue():
    lam = Partition((2, 1))
    assert diffusion_eigenvalue(lam, 0.5) == pytest.approx(0.5, abs=1e-15)
    for n in (2, 4, 6):
        for p in (0.0, 0.3, 0.75, 1.0):
            assert diffusion_eigenvalue(Partition((n,)), p) == pytest.approx(1.0)
            assert diffusion_eigenvalue(Partition((1,) * n), p) == pytest.approx(
                2 * p - 1
            )
    exact = diffusion_eigenvalue(lam, Fraction(1, 3))
    assert exact == Fraction(1, 3)
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                assert abs(diffusion_eigenvalue(lam, p)) <= 1 + 1e-15


def test_partition_count_frozen():
    assert len(enumerate_partitions(10)) == 42
    assert oracles.partition_count(1) == len(enumerate_partitions(1)) == 1


def test_conjugacy_classes():
    for n in range(1, 9):
        classes = conjugacy_classes(n)
        assert len(classes) == len(enumerate_partitions(n))
        assert sum(c.size for c in classes) == math.factorial(n)


def test_character_table_s3():
    for lam, row in oracles.S3_CHARACTERS.items():
        for ctype, value in row.items():
            assert character(Partition(lam), Partition(ctype)) == value


def test_characters_constant_on_classes():
    # traces must not depend on the chosen class member
    n = 5
    for ol in oracles.all_perms_lex(n)[::7]:
        ctype = Partition(oracles.cycle_type(ol))
        for lam in enumerate_partitions(n):
            tr = float(np.trace(yor.irrep_of(lam, Permutation(ol))))
            assert tr == pytest.approx(character(lam, ctype), abs=1e-9)


@pytest.mark.parametrize("n", range(1, 8))
def test_murnaghan_nakayama_equals_the_representation_trace(n):
    # the rim-hook rule shares no code with Young's orthogonal form
    members = {}  # one member of each class, by its cycle type
    for one_line in oracles.all_perms_lex(n):
        members.setdefault(oracles.cycle_type(one_line), one_line)
    for cls in conjugacy_classes(n):
        member = Permutation(members[cls.cycle_type.parts])
        for lam in enumerate_partitions(n):
            value = character(lam, cls.cycle_type)
            assert type(value) is int
            trace = float(np.trace(yor.irrep_of(lam, member)))
            assert abs(trace - value) <= 1e-9


def test_kronecker_s3_hand_checked():
    two_one = Partition((2, 1))
    for nu, expected in (((3,), 1), ((2, 1), 1), ((1, 1, 1), 1)):
        assert kronecker_multiplicity(two_one, two_one, Partition(nu)) == expected


def test_kronecker_with_trivial_is_delta():
    for n in range(2, 6):
        triv = Partition((n,))
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                assert kronecker_multiplicity(triv, mu, nu) == int(mu == nu)


def test_kronecker_s4_squares():
    lam = Partition((3, 1))
    got = {
        nu.parts: kronecker_multiplicity(lam, lam, nu)
        for nu in enumerate_partitions(4)
    }
    assert got == {(4,): 1, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 0}


def test_kronecker_symmetric_all_triples():
    for n in range(2, 6):
        lams = enumerate_partitions(n)
        for a, b, c in itertools.combinations_with_replacement(lams, 3):
            z = kronecker_multiplicity(a, b, c)
            assert z >= 0
            for x, y, w in itertools.permutations((a, b, c)):
                assert kronecker_multiplicity(x, y, w) == z


def test_kronecker_guard_and_mismatch():
    with pytest.raises(ValueError):
        kronecker_multiplicity(Partition((2, 1)), Partition((4,)), Partition((3,)))
    with pytest.raises(DegreeGuardError):
        big = Partition((10,))
        kronecker_multiplicity(big, big, big)


def test_kronecker_rejects_a_class_sum_that_is_no_multiplicity(monkeypatch):
    # chi = 2 at the identity and 0 elsewhere: the n = 3 class sum is 8/6; an
    # exception, not an assert, so the check holds under python -O too
    monkeypatch.setattr(snfourier.partitions, "character",
                        lambda lam, ctype: 2 if ctype.parts == (1,) * ctype.weight else 0)
    lam, mu, nu = Partition((3,)), Partition((2, 1)), Partition((1, 1, 1))
    with pytest.raises(ArithmeticError) as err:
        kronecker_multiplicity(lam, mu, nu)
    assert err.type is ArithmeticError
    assert str(err.value) == \
        "class sum 8/6 for (3,), (2, 1), (1, 1, 1) is not a nonnegative integer"


def test_class_size_rejects_a_cycle_type_that_is_no_class():
    # (2, 2) is a cycle type of S_4, and its centralizer order 8 does not divide 3!
    with pytest.raises(ArithmeticError) as err:
        snfourier.partitions._class_size(3, (2, 2))
    assert err.type is ArithmeticError
    assert str(err.value) == "centralizer order 8 of cycle type (2, 2) does not divide 3!"


def test_kronecker_with_trivial_is_delta_at_the_degree_guard():
    triv, mu = Partition((9,)), Partition((4, 3, 2))
    for nu in enumerate_partitions(9):
        assert kronecker_multiplicity(triv, mu, nu) == int(nu == mu)


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "partition-empty": (lambda: Partition(()), ValueError, "partition needs at least one part"),
    "enumerate-zero": (lambda: enumerate_partitions(0), ValueError, "n must be positive, got 0"),
    "character-weight": (lambda: character(Partition((2, 1)), Partition((2,))),
                         ValueError, "cycle type and partition weigh different n"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)


def test_partitions_imports_no_package_module_but_errors():
    # the representation data stays a leaf: every other module may import it
    with open(snfourier.partitions.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else
                            [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("snfourier"):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names
                            if alias.name.startswith("snfourier"))
    assert imported == {"errors"}
