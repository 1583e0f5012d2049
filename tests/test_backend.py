"""The numpy kernels against the brute-force oracles."""

import math

import numpy as np
import pytest

import oracles
from snfourier import _backend
from snfourier.partitions import enumerate_partitions
from snfourier.perms import Permutation
from snfourier.yor import _generator_data, irrep_of

RNG = np.random.default_rng(41)


def test_backend_flag_is_reported():
    # the env stamp perfbench writes into every result reads these two names
    assert _backend.ACTIVE_BACKEND == "numpy"
    assert isinstance(_backend.HAS_NUMBA, bool)


def test_swap_sequence_visits_every_rank_once():
    for n in range(2, 7):
        seq = _backend.swap_sequence(n)
        assert seq.shape == (math.factorial(n) - 1,)
        digits = np.zeros((1, n), dtype=np.int64)
        seen = {0}
        weights = _backend.factorial_weights(n)
        for k in seq:
            digits = _backend.apply_swaps(digits, np.array([k]))
            seen.add(int(digits[0] @ weights))
        assert seen == set(range(math.factorial(n)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_encode_batch_matches_inversion_count(n):
    lines = oracles.all_perms_lex(n)
    expected = np.array([oracles.inversion_digits(line) for line in lines])
    assert np.array_equal(_backend.encode_batch(np.array(lines)), expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_apply_swaps_matches_slot_replay(n):
    lines = oracles.all_perms_lex(n)
    digits = np.array([oracles.inversion_digits(line) for line in lines])
    random_seq = RNG.integers(1, n, size=3 * n)
    for seq in ([], list(_backend.swap_sequence(n)), list(random_seq)):
        expected = []
        for line in lines:
            moved = list(line)
            for k in seq:
                moved[k - 1], moved[k] = moved[k], moved[k - 1]
            expected.append(oracles.inversion_digits(moved))
        got = _backend.apply_swaps(digits, np.array(seq, dtype=np.int64))
        assert np.array_equal(got, np.array(expected))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_irrep_stack_matches_irrep_of(n):
    for lam in enumerate_partitions(n):
        stack = _backend.irrep_stack_from_generators(n, *_generator_data(lam))
        for rank, line in enumerate(oracles.all_perms_lex(n)):
            expected = irrep_of(lam, Permutation(line))
            assert np.allclose(stack[rank], expected, atol=1e-14)


@pytest.mark.parametrize("n", [3, 4])
def test_convolve_direct_matches_oracle(n):
    fact = math.factorial(n)
    q = oracles.random_probability(RNG, fact)
    h = RNG.standard_normal(fact)
    assert np.allclose(_backend.convolve_direct(q, h, n),
                       oracles.convolve_oracle(q, h, n), atol=1e-12)


def test_all_perms0_matches_lex_order():
    for n in range(2, 6):
        expected = np.asarray(oracles.all_perms_lex(n)) - 1
        assert np.array_equal(np.asarray(_backend.all_perms0(n)), expected)


def test_all_inverses0_are_inverses():
    for n in range(2, 6):
        perms0 = np.asarray(_backend.all_perms0(n))
        inv0 = np.asarray(_backend.all_inverses0(n))
        rows = np.arange(perms0.shape[0])[:, None]
        assert np.array_equal(perms0[rows, inv0], np.tile(np.arange(n), (perms0.shape[0], 1)))
