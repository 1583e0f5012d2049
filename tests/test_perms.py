"""Lehmer/Cauchy layer: encodings, ranking, composition, digit update rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import reorder_sequence
from snfourier._backend import all_digits
from snfourier.perms import (
    LehmerCode,
    Permutation,
    adjacent_transposition,
    adjacent_update,
    all_one_lines,
    compose,
    lehmer_decode,
    lehmer_encode,
    lehmer_rank,
    lehmer_unrank,
    ranks_after_sequence,
)


def test_encode_worked_example():
    assert lehmer_encode(Permutation((3, 4, 2, 1))).digits == (2, 2, 1, 0)


def test_encode_identity_and_reversal():
    for n in range(1, 8):
        assert lehmer_encode(Permutation(tuple(range(1, n + 1)))).digits == (0,) * n
        rev = Permutation(tuple(range(n, 0, -1)))
        assert lehmer_encode(rev).digits == tuple(range(n - 1, -1, -1))


def test_encode_matches_inversion_count_oracle():
    for n in range(1, 7):
        for ol in oracles.all_perms_lex(n):
            assert lehmer_encode(Permutation(ol)).digits == oracles.inversion_digits(ol)


def test_decode_worked_example():
    assert lehmer_decode(LehmerCode((2, 2, 1, 0))).one_line == (3, 4, 2, 1)
    assert lehmer_decode(LehmerCode((0, 0, 0))).one_line == (1, 2, 3)


def test_decode_all_codes_n3_are_distinct_permutations():
    seen = set()
    for a in range(3):
        for b in range(2):
            perm = lehmer_decode(LehmerCode((a, b, 0)))
            assert sorted(perm.one_line) == [1, 2, 3]
            seen.add(perm.one_line)
    assert len(seen) == 6


def test_rank_worked_example():
    assert lehmer_rank(LehmerCode((2, 2, 1, 0))) == 2 * 6 + 2 * 2 + 1 * 1
    assert lehmer_rank(LehmerCode((0, 0, 0, 0))) == 0


def test_rank_injective_n5():
    ranks = {
        lehmer_rank(lehmer_encode(Permutation(ol)))
        for ol in oracles.all_perms_lex(5)
    }
    assert ranks == set(range(120))


def test_roundtrips_exhaustive():
    for n in range(1, 7):
        for r, ol in enumerate(oracles.all_perms_lex(n)):
            p = Permutation(ol)
            code = lehmer_encode(p)
            assert lehmer_decode(code) == p
            assert lehmer_rank(code) == r == oracles.factorial_rank(code.digits)
            assert lehmer_unrank(r, n) == code


def test_roundtrips_sampled_large():
    rng = np.random.default_rng(7)
    for n in (7, 8):
        ranks = rng.integers(0, math.factorial(n), size=100_000)
        digits = all_digits(n)[ranks]
        perms = all_one_lines(n)[ranks]
        # batch tables are rank-aligned, so re-encoding must reproduce both
        back = np.array([oracles.inversion_digits(tuple(row)) for row in perms[:200]])
        assert np.array_equal(back, digits[:200])
        weights = np.array([math.factorial(n - i - 1) for i in range(n)])
        assert np.array_equal(digits @ weights, ranks)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
def test_roundtrip_property(n, pyrandom):
    ol = list(range(1, n + 1))
    pyrandom.shuffle(ol)
    p = Permutation(tuple(ol))
    code = lehmer_encode(p)
    assert lehmer_decode(code) == p
    assert lehmer_unrank(lehmer_rank(code), n) == code
    assert compose(p, Permutation(oracles.inverse_oracle(p.one_line))) == \
        Permutation(tuple(range(1, n + 1)))


def test_compose_worked_example():
    a = Permutation((2, 1, 3))
    b = Permutation((1, 3, 2))
    assert compose(a, b).one_line == (2, 3, 1)


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 6):
        for _ in range(20):
            ol = tuple(rng.permutation(n) + 1)
            p = Permutation(ol)
            e = Permutation(tuple(range(1, n + 1)))
            inv = Permutation(oracles.inverse_oracle(ol))
            assert compose(e, p) == p
            assert compose(p, e) == p
            assert compose(p, inv) == e
            assert compose(inv, p) == e


def test_compose_matches_pointwise_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = tuple(rng.permutation(n) + 1)
        b = tuple(rng.permutation(n) + 1)
        assert compose(Permutation(a), Permutation(b)).one_line == \
            oracles.compose_oracle(a, b)


def test_adjacent_transposition_code():
    for n in (2, 3, 5):
        tau = adjacent_transposition(n, 1)
        assert lehmer_encode(tau).digits == (1,) + (0,) * (n - 1)


def test_adjacent_update_matches_decode_compose_encode():
    # every sigma in S_5, every adjacent slot
    for ol in oracles.all_perms_lex(5):
        p = Permutation(ol)
        code = lehmer_encode(p)
        for k in range(1, 5):
            expected = oracles.inversion_digits(
                oracles.compose_oracle(ol, adjacent_transposition(5, k).one_line)
            )
            updated = adjacent_update(code, k)
            assert updated.digits == expected
            # touches only slots k, k+1
            for i in range(5):
                if i not in (k - 1, k):
                    assert updated.digits[i] == code.digits[i]
            assert adjacent_update(updated, k) == code


def test_update_rule_is_involution():
    code = LehmerCode((2, 1, 1, 0))
    for k in (1, 2, 3):
        assert adjacent_update(adjacent_update(code, k), k) == code


def test_reorder_identity_when_already_in_place():
    seq = reorder_sequence(5, (1, 2, 3), "to_front")
    assert seq == ()
    assert oracles.replay_swaps(5, seq) == Permutation((1, 2, 3, 4, 5))
    seq = reorder_sequence(5, (4, 5), "to_back")
    assert seq == ()
    assert oracles.replay_swaps(5, seq) == Permutation((1, 2, 3, 4, 5))


def test_reorder_single_index_to_front():
    for n in (3, 4, 6):
        for t in range(1, n + 1):
            seq = reorder_sequence(n, (t,), "to_front")
            pi = oracles.replay_swaps(n, seq)
            assert len(seq) == t - 1
            assert seq == tuple(range(t - 1, 0, -1))
            # net effect: slot 1 of sigma.pi reads original slot t
            assert pi.one_line[0] == t


def test_reorder_targets_land_in_window():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, n + 1))
        indices = tuple(sorted(rng.choice(n, size=k, replace=False) + 1))
        for mode in ("to_front", "to_back"):
            seq = reorder_sequence(n, indices, mode)
            pi = oracles.replay_swaps(n, seq)
            window = range(1, k + 1) if mode == "to_front" else range(n - k + 1, n + 1)
            landed = tuple(pi.one_line[m - 1] for m in window)
            assert landed == indices  # ascending order preserved
            assert len(seq) <= k * n


def test_reorder_replay_matches_composition_and_restores():
    rng = np.random.default_rng(13)
    n = 5
    digits = all_digits(n)
    perms = all_one_lines(n)
    for _ in range(20):
        k = int(rng.integers(1, n + 1))
        indices = tuple(sorted(rng.choice(n, size=k, replace=False) + 1))
        mode = ("to_front", "to_back")[int(rng.integers(2))]
        seq = reorder_sequence(n, indices, mode)
        pi = oracles.replay_swaps(n, seq)
        moved = ranks_after_sequence(n, seq)
        for r in range(0, 120, 7):
            sigma = Permutation(tuple(perms[r]))
            expected = lehmer_rank(lehmer_encode(compose(sigma, pi)))
            assert moved[r] == expected
        # applying the reversed sequence undoes the relabeling
        restored = ranks_after_sequence(n, tuple(reversed(seq)))[moved]
        assert np.array_equal(restored, np.arange(120))
        assert np.array_equal(np.sort(moved), np.arange(120))
    assert digits.shape == (120, 5)


def test_batch_tables_match_lex_enumeration():
    for n in range(1, 7):
        table = all_one_lines(n)
        assert [tuple(row) for row in table] == oracles.all_perms_lex(n)
        dig = all_digits(n)
        assert [tuple(row) for row in dig] == [
            oracles.inversion_digits(ol) for ol in oracles.all_perms_lex(n)
        ]


def test_permutation_rejects_non_integral_values():
    for line in ((1.7, 2, 3), (1, 2.0000001, 3), (np.float64(3.5), 1, 2), (1, math.inf, 3),
                 (-math.inf, 2, 3), (None, 2, 1), None, ("x", 1, 2)):
        with pytest.raises(ValueError, match="one-line values must be integers"):
            Permutation(line)
    # integral values of any numeric type are still coerced to ints
    for line in ((1.0, 2, 3), (True, 2, 3), tuple(np.array([1, 2, 3]))):
        assert Permutation(line).one_line == (1, 2, 3)
        assert all(type(v) is int for v in Permutation(line).one_line)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        LehmerCode((3, 0, 0))  # slot 1 of n=3 allows at most 2
    with pytest.raises(ValueError):
        LehmerCode((0, 0, 1))  # last digit must be 0


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "compose-degree": (lambda: compose(Permutation((2, 1)), Permutation((1, 3, 2))),
                       ValueError, "degree mismatch"),
    "adjacent_transposition-k": (lambda: adjacent_transposition(3, 3),
                                 ValueError, "k must be in 1..2, got 3"),
    "adjacent_update-k": (lambda: adjacent_update(LehmerCode((0, 0, 0)), 0),
                          ValueError, "k must be in 1..2, got 0"),
    "lehmer_unrank-rank": (lambda: lehmer_unrank(6, 3),
                           ValueError, "rank 6 out of range for n=3"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
