"""Young's orthogonal representation: generators, products, orthogonality."""

import math

import numpy as np
import pytest

import oracles
from snfourier.partitions import Partition, enumerate_partitions, irrep_dimension, \
    transposition_character_ratio
from snfourier.perms import Permutation, adjacent_transposition, compose
from snfourier.yor import _generator_data, apply_generator, corner_blocks, irrep_of, \
    irrep_stack, standard_tableaux

RNG = np.random.default_rng(2024)


def random_perm(n):
    return Permutation(tuple(RNG.permutation(n) + 1))


def test_tableaux_frozen_order_2_1():
    tabs = standard_tableaux(Partition((2, 1)))
    assert tabs == (((1, 2), (3,)), ((1, 3), (2,)))


def test_tableaux_are_standard_and_counted():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            tabs = standard_tableaux(lam)
            assert len(tabs) == irrep_dimension(lam) == oracles.syt_count(lam.parts)
            assert len(set(tabs)) == len(tabs)
            for tab in tabs:
                assert sorted(v for row in tab for v in row) == list(range(1, n + 1))
                for row in tab:
                    assert list(row) == sorted(row)
                for i in range(len(tab) - 1):
                    for c in range(len(tab[i + 1])):
                        assert tab[i][c] < tab[i + 1][c]


def test_tableaux_last_letter_order():
    # n sits strictly lower (larger row index) in earlier tableaux
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            rows_of_n = []
            for tab in standard_tableaux(lam):
                row = next(i for i, r in enumerate(tab) if n in r)
                rows_of_n.append(row)
            assert rows_of_n == sorted(rows_of_n, reverse=True)


def test_corner_blocks_hold_the_tableaux_of_mu():
    # span lo:hi of a corner's row lists the tableaux with n in that row,
    # which read mu's own tableaux once n is removed
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            tabs = standard_tableaux(lam)
            end = 0
            for row, (mu, lo, hi) in corner_blocks(lam).items():
                assert lo == end
                end = hi
                assert all(n in tab[row] for tab in tabs[lo:hi])
                trimmed = tuple(tuple(r for r in (tuple(v for v in r if v != n) for r in tab)
                                      if r) for tab in tabs[lo:hi])
                assert trimmed == standard_tableaux(mu)
            assert end == len(tabs)


def test_generator_data_equals_tableau_oracle():
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            for got, expected in zip(_generator_data(lam),
                                     oracles.generator_data_from_tableaux(lam)):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert np.array_equal(got, expected)


def test_apply_generator_equals_dense_generator_on_a_batch():
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            mats = RNG.standard_normal((4, irrep_dimension(lam), 3))
            for k in range(1, n):
                expected = oracles.yor_generator(lam, k) @ mats
                assert np.allclose(apply_generator(lam, k - 1, mats), expected,
                                   rtol=0, atol=1e-14)


def test_generator_frozen_matrices():
    for n in (2, 3, 5):
        for k in range(1, n):
            assert np.array_equal(oracles.yor_generator(Partition((n,)), k), [[1.0]])
            assert np.array_equal(oracles.yor_generator(Partition((1,) * n), k), [[-1.0]])
    lam = Partition((2, 1))
    assert np.allclose(oracles.yor_generator(lam, 1), np.diag([1.0, -1.0]), atol=1e-15)
    root3 = math.sqrt(3.0)
    expected = np.array([[-0.5, root3 / 2], [root3 / 2, 0.5]])
    assert np.allclose(oracles.yor_generator(lam, 2), expected, atol=1e-15)
    assert abs(np.trace(oracles.yor_generator(lam, 2))) < 1e-15


def test_generators_symmetric_orthogonal_involutions():
    for n in range(2, 7):
        for lam in enumerate_partitions(n):
            for k in range(1, n):
                g = oracles.yor_generator(lam, k)
                assert np.allclose(g, g.T, atol=1e-12)
                assert np.allclose(g @ g, np.eye(g.shape[0]), atol=1e-12)


def test_irrep_of_identity_and_generators():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            d = irrep_dimension(lam)
            assert np.array_equal(irrep_of(lam, Permutation(tuple(range(1, n + 1)))), np.eye(d))
        for k in range(1, n):
            tau = adjacent_transposition(n, k)
            for lam in enumerate_partitions(n):
                assert np.allclose(
                    irrep_of(lam, tau), oracles.yor_generator(lam, k), atol=1e-12
                )


def test_homomorphism_random_pairs():
    for n in range(2, 7):
        lams = enumerate_partitions(n)
        for _ in range(200 // n):
            a, b = random_perm(n), random_perm(n)
            ab = compose(a, b)
            for lam in lams:
                lhs = irrep_of(lam, a) @ irrep_of(lam, b)
                assert np.allclose(lhs, irrep_of(lam, ab), atol=1e-10)


def test_inverse_is_transpose():
    for n in range(2, 7):
        for _ in range(20):
            p = random_perm(n)
            for lam in enumerate_partitions(n):
                m = irrep_of(lam, p)
                assert np.allclose(m.T, irrep_of(lam, Permutation(oracles.inverse_oracle(p.one_line))), atol=1e-10)
                assert np.allclose(m.T @ m, np.eye(m.shape[0]), atol=1e-10)


def test_three_cycle_character_s3():
    three_cycle = Permutation((2, 3, 1))
    tr = np.trace(irrep_of(Partition((2, 1)), three_cycle))
    assert tr == pytest.approx(-1.0, abs=1e-12)


def test_transposition_trace_matches_content_ratio():
    for n in range(2, 7):
        tau = adjacent_transposition(n, 1)
        for lam in enumerate_partitions(n):
            expected = float(transposition_character_ratio(lam)) * irrep_dimension(lam)
            assert np.trace(irrep_of(lam, tau)) == pytest.approx(expected, abs=1e-10)


def test_schur_orthogonality():
    # (d/n!) sum_sigma rho^lam_ij rho^mu_kl = delta; full check via stacked entries
    for n in range(2, 6):
        fact = math.factorial(n)
        cols = []
        scale = []
        for lam in enumerate_partitions(n):
            stack = irrep_stack(n, lam)
            d = stack.shape[1]
            cols.append(stack.reshape(fact, d * d))
            scale.extend([math.sqrt(d / fact)] * (d * d))
        basis = np.hstack(cols) * np.asarray(scale)[None, :]
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(fact))) < 1e-10


def test_irrep_stack_matches_irrep_of():
    for n in range(1, 6):
        perms = oracles.all_perms_lex(n)
        for lam in enumerate_partitions(n):
            stack = irrep_stack(n, lam)
            assert stack.shape[0] == math.factorial(n)
            for r, line in enumerate(perms):
                direct = irrep_of(lam, Permutation(line))
                assert np.allclose(stack[r], direct, rtol=0, atol=1e-14)


def test_irrep_stack_orthogonal_to_rounding_at_n6():
    # each matrix is a product of at most C(n,2) generators, so rounding
    # stays at a few ulps
    for lam in enumerate_partitions(6):
        stack = irrep_stack(6, lam)
        gram = np.einsum("rij,rkj->rik", stack, stack)
        assert np.max(np.abs(gram - np.eye(stack.shape[1]))) <= 1e-14


def test_irrep_stack_readonly_and_cached():
    lam = Partition((2, 1))
    s1 = irrep_stack(3, lam)
    assert s1 is irrep_stack(3, lam)
    assert not s1.flags.writeable


def test_restriction_is_block_diagonal_bottom_corner_first():
    # the coset-recursion FFT reads rho_lam on S_{k-1} as the direct sum of
    # rho_mu over the corners mu of lam, in last-letter order
    for k in range(2, 7):
        for lam in enumerate_partitions(k):
            parts = lam.parts
            corners = [i for i in range(len(parts) - 1, -1, -1)
                       if i == len(parts) - 1 or parts[i] > parts[i + 1]]
            mus = [Partition(tuple(p for p in parts[:i] + (parts[i] - 1,) + parts[i + 1:]
                                   if p)) for i in corners]
            for line in oracles.all_perms_lex(k - 1):
                expected = np.zeros((irrep_dimension(lam),) * 2)
                lo = 0
                for mu in mus:
                    hi = lo + irrep_dimension(mu)
                    expected[lo:hi, lo:hi] = irrep_of(mu, Permutation(line))
                    lo = hi
                got = irrep_of(lam, Permutation(line + (k,)))
                assert np.max(np.abs(got - expected)) <= 1e-14


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "irrep_of-weight": (lambda: irrep_of(Partition((2, 1)), Permutation((2, 1))),
                        ValueError, "permutation degree and partition weight differ"),
    "irrep_stack-weight": (lambda: irrep_stack(4, Partition((2, 1))),
                           ValueError, "partition weight must equal n"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
