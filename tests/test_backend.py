"""The numpy kernels against the brute-force oracles."""

import math

import numpy as np
import pytest

import oracles
from snfourier import _backend
from snfourier.partitions import enumerate_partitions
from snfourier.perms import Permutation, ranks_after_sequence
from snfourier.transform import convolve
from snfourier.yor import irrep_of, irrep_stack

RNG = np.random.default_rng(41)


def test_backend_flag_is_reported():
    # the env stamp perfbench writes into every result reads these two names
    assert _backend.ACTIVE_BACKEND == "numpy"
    assert isinstance(_backend.HAS_NUMBA, bool)


def test_swap_sequence_visits_every_rank_once():
    for n in range(2, 7):
        seq = _backend.swap_sequence(n)
        assert seq.shape == (math.factorial(n) - 1,)
        line = list(range(1, n + 1))
        seen = {0}
        for k in seq:
            line[k - 1], line[k] = line[k], line[k - 1]
            seen.add(oracles.factorial_rank(oracles.inversion_digits(line)))
        assert seen == set(range(math.factorial(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_encode_batch_matches_inversion_count(n):
    lines = np.array(oracles.all_perms_lex(n))
    rows = np.concatenate([lines[::-1], RNG.permutation(lines)])
    expected = [oracles.factorial_rank(oracles.inversion_digits(row)) for row in rows.tolist()]
    # 1-based and 0-based values rank alike
    for one_lines in (rows, rows - 1):
        assert np.array_equal(_backend.encode_batch(one_lines), expected)


def test_encode_batch_ranks_the_table_in_order():
    for n in range(1, 10):
        table = _backend.all_perms0(n)
        expected = np.arange(math.factorial(n))
        assert np.array_equal(_backend.encode_batch(table), expected)
        # a row-major copy ranks the same as the slot-major view
        assert np.array_equal(_backend.encode_batch(np.ascontiguousarray(table)), expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ranks_after_sequence_matches_slot_replay(n):
    lines = oracles.all_perms_lex(n)
    random_seq = RNG.integers(1, n, size=3 * n)
    for seq in ([], list(_backend.swap_sequence(n)), list(random_seq)):
        expected = []
        for line in lines:
            moved = list(line)
            for k in seq:
                moved[k - 1], moved[k] = moved[k], moved[k - 1]
            expected.append(oracles.factorial_rank(oracles.inversion_digits(moved)))
        assert np.array_equal(ranks_after_sequence(n, tuple(seq)), expected)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_irrep_stack_matches_irrep_of(n):
    # the stack is indexed by the backend's ranks: row r of all_perms0
    for lam in enumerate_partitions(n):
        stack = irrep_stack(n, lam)
        for rank, line0 in enumerate(_backend.all_perms0(n)):
            expected = irrep_of(lam, Permutation(tuple(int(v) + 1 for v in line0)))
            assert np.allclose(stack[rank], expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4])
def test_convolve_matches_oracle(n):
    fact = math.factorial(n)
    h = RNG.standard_normal(fact)
    sparse = np.zeros(fact)  # exact zeros, which convolve skips
    sparse[RNG.choice(fact, size=3, replace=False)] = RNG.random(3)
    for q in (oracles.random_probability(RNG, fact), sparse, RNG.standard_normal(fact)):
        assert np.allclose(convolve(q, h), oracles.convolve_oracle(q, h, n), atol=1e-12)


def test_all_perms0_matches_lex_order():
    for n in range(1, 10):
        table = _backend.all_perms0(n)
        assert table.dtype == np.uint8
        assert np.array_equal(table, np.asarray(oracles.all_perms_lex(n)) - 1)
        assert not table.flags.writeable
        # stored slot-major: each slot's column is one contiguous run
        assert all(table[:, slot].flags.c_contiguous for slot in range(n))


def test_all_inverses0_are_inverses():
    for n in range(2, 6):
        perms0 = np.asarray(_backend.all_perms0(n))
        inv0 = np.asarray(_backend.all_inverses0(n))
        rows = np.arange(perms0.shape[0])[:, None]
        assert np.array_equal(perms0[rows, inv0], np.tile(np.arange(n), (perms0.shape[0], 1)))
