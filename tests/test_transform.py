"""Fourier layer: forward and inverse transform, convolution, and the FFT
cross-checked against the dense routes it replaced."""

import math
import sys
import threading

import numpy as np
import pytest

import oracles
from snfourier.errors import DegreeGuardError
from snfourier.partitions import Partition, enumerate_partitions, irrep_dimension
from snfourier.perms import Permutation
from snfourier.transform import FourierSpectrum, _program, convolve, \
    convolve_spectra, function_degree, gft_forward, gft_inverse, left_shift
from snfourier.yor import irrep_of

RNG = np.random.default_rng(11)


def delta_at_identity(n):
    h = np.zeros(math.factorial(n))
    h[0] = 1.0
    return h


def test_function_degree():
    assert function_degree(np.zeros(1)) == 1
    assert function_degree(np.zeros(6)) == 3
    assert function_degree(np.zeros(24)) == 4
    for bad in (0, 7, 25):
        with pytest.raises(ValueError):
            function_degree(np.zeros(bad))


def test_delta_spectrum_is_scaled_identity():
    for n in (3, 4):
        spec = gft_forward(delta_at_identity(n), "unitary")
        for lam, block in spec.blocks.items():
            d = irrep_dimension(lam)
            scale = math.sqrt(d / math.factorial(n))
            assert np.allclose(block, scale * np.eye(d), atol=1e-12)
        plain = gft_forward(delta_at_identity(n), "plain")
        for lam, block in plain.blocks.items():
            assert np.array_equal(block, np.eye(irrep_dimension(lam)))


def test_uniform_function_hits_only_trivial_block():
    for n in (3, 5):
        h = np.full(math.factorial(n), 1.0 / math.factorial(n))
        spec = gft_forward(h, "plain")
        for lam, block in spec.blocks.items():
            if lam.parts == (n,):
                assert block == pytest.approx(np.array([[1.0]]), abs=1e-12)
            else:
                assert np.max(np.abs(block)) < 1e-12


def test_forward_matches_naive_triple_loop():
    n = 4
    h = RNG.standard_normal(24)
    spec = gft_forward(h, "plain")
    perms = [Permutation(ol) for ol in oracles.all_perms_lex(n)]
    for lam in enumerate_partitions(n):
        mats = [irrep_of(lam, p) for p in perms]
        assert np.allclose(spec.blocks[lam], oracles.naive_gft_block(h, mats),
                           atol=1e-10)


def test_roundtrip_random_functions():
    for n in range(2, 7):
        for _ in range(10):
            h = RNG.standard_normal(math.factorial(n))
            for norm in ("plain", "unitary"):
                back = gft_inverse(gft_forward(h, norm))
                assert np.allclose(back, h, atol=1e-10)


def test_inverse_of_zero_and_delta_spectra():
    n = 4
    zero = gft_forward(np.zeros(math.factorial(n)), "unitary")
    assert np.array_equal(gft_inverse(zero), np.zeros(math.factorial(n)))
    spec = gft_forward(delta_at_identity(n), "unitary")
    assert np.allclose(gft_inverse(spec), delta_at_identity(n), atol=1e-12)


def test_spectrum_validation():
    n = 3
    FourierSpectrum(n, "unitary", np.zeros(6))
    with pytest.raises(ValueError, match="unknown normalization"):
        FourierSpectrum(n, "euclidean", np.zeros(6))
    for bad in (np.zeros(5), np.zeros(7), np.zeros((6, 1)), np.zeros((2, 3))):
        with pytest.raises(ValueError, match="flat array of n! = 6 entries"):
            FourierSpectrum(n, "unitary", bad)


@pytest.mark.parametrize("n", range(1, 10))
def test_blocks_tile_values_in_canonical_order(n):
    spec = FourierSpectrum(n, "plain", np.arange(math.factorial(n), dtype=np.float64))
    blocks = spec.blocks
    assert tuple(blocks) == enumerate_partitions(n)
    start = 0
    for lam, block in blocks.items():
        d = irrep_dimension(lam)
        assert block.shape == (d, d)
        assert np.shares_memory(block, spec.values)
        assert np.array_equal(block.ravel(), np.arange(start, start + d * d))
        start += d * d
    assert start == math.factorial(n)


@pytest.mark.parametrize("normalization", ["plain", "unitary"])
@pytest.mark.parametrize("n", range(1, 8))
def test_scaled_multiplies_each_block_view(n, normalization):
    spec = gft_forward(RNG.standard_normal(math.factorial(n)), normalization)
    factors = RNG.standard_normal(len(enumerate_partitions(n)))
    out = spec.scaled(factors)
    assert out.normalization == normalization
    assert not np.shares_memory(out.values, spec.values)
    for factor, block, scaled in zip(factors, spec.blocks.values(), out.blocks.values()):
        assert scaled.tobytes() == (block * factor).tobytes()


def test_sampling_distribution_is_energy_over_total():
    h = RNG.standard_normal(24)
    spec = gft_forward(h, "unitary")
    dist = spec.sampling_distribution()
    total = float(h @ h)
    assert tuple(dist) == enumerate_partitions(4)
    for lam, prob in dist.items():
        assert prob == pytest.approx(spec.energies()[lam] / total, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)


def test_sampling_distribution_rejects_plain_spectra_and_zero_function():
    with pytest.raises(ValueError, match="unitary"):
        gft_forward(RNG.standard_normal(6), "plain").sampling_distribution()
    with pytest.raises(ValueError, match="the zero function has no sampling distribution"):
        gft_forward(np.zeros(6), "unitary").sampling_distribution()


@pytest.mark.parametrize("n", range(2, 8))
def test_fft_matches_dense_oracle(n):
    h = RNG.standard_normal(math.factorial(n))
    for norm in ("plain", "unitary"):
        fast = gft_forward(h, norm)
        dense = oracles.dense_gft_forward(h, norm)
        for lam in enumerate_partitions(n):
            assert np.max(np.abs(fast.blocks[lam] - dense.blocks[lam])) <= 1e-12
        # an arbitrary spectrum, not one the forward transform produced
        spec = oracles.spectrum_from_blocks(n, norm, {
            lam: RNG.standard_normal((irrep_dimension(lam),) * 2)
            for lam in enumerate_partitions(n)})
        assert np.max(np.abs(gft_inverse(spec) - oracles.dense_gft_inverse(spec))) <= 1e-12


@pytest.mark.parametrize("n", range(1, 10))
def test_program_is_bit_equal_to_the_recursion(n):
    fact = math.factorial(n)
    for _ in range(2):
        h = RNG.standard_normal(fact) * 10.0 ** RNG.uniform(-3, 3)
        for norm in ("plain", "unitary"):
            fast = gft_forward(h, norm)
            slow = oracles.recursive_gft_forward(h, norm)
            assert np.array_equal(fast.values, slow.values)
            assert np.array_equal(gft_inverse(fast), oracles.recursive_gft_inverse(slow))
            # an arbitrary spectrum, not one the forward transform produced
            spec = FourierSpectrum(n, norm, RNG.standard_normal(fact))
            assert np.array_equal(gft_inverse(spec), oracles.recursive_gft_inverse(spec))
            # blocks and energies from the cached layout, against a fresh walk
            expected, start = {}, 0
            for lam in enumerate_partitions(n):
                d = irrep_dimension(lam)
                expected[lam] = slow.values[start:start + d * d].reshape(d, d)
                start += d * d
            blocks = fast.blocks
            assert list(blocks) == list(expected)
            assert all(np.array_equal(blocks[lam], b) for lam, b in expected.items())
            assert fast.energies() == {lam: float(np.sum(b * b)) for lam, b in expected.items()}
            assert fast.block_energies() == [float(np.sum(b * b)) for b in expected.values()]
            rebuilt = oracles.spectrum_from_blocks(n, norm, blocks)
            assert np.array_equal(rebuilt.values, fast.values)


def test_transforms_neither_alias_nor_write_their_operands():
    h = RNG.standard_normal(720)
    h.setflags(write=False)  # a write into the input would raise
    spec = gft_forward(h, "plain")
    spec.values.setflags(write=False)
    back = gft_inverse(spec)
    kept_spec, kept_back = spec.values.copy(), back.copy()
    for buffer in _program(6).buffers:
        assert not np.shares_memory(spec.values, buffer)
        assert not np.shares_memory(back, buffer)
    # later calls at this degree and at others reuse the program buffers
    for n in (6, 5, 7, 6):
        for norm in ("plain", "unitary"):
            other = RNG.standard_normal(math.factorial(n))
            gft_inverse(gft_forward(other, norm))
            gft_inverse(FourierSpectrum(n, norm, other))
    assert np.array_equal(spec.values, kept_spec)
    assert np.array_equal(back, kept_back)


def test_concurrent_transforms_get_the_recursions_bits():
    # more threads than cores, each on its own input, at one degree's program
    n = 6
    inputs = [RNG.standard_normal(math.factorial(n)) for _ in range(4)]
    expected = []
    for h in inputs:
        spec = oracles.recursive_gft_forward(h)
        expected.append((spec.values, oracles.recursive_gft_inverse(spec)))
    start = threading.Barrier(len(inputs))
    done, wrong = [], []

    def transform_repeatedly(i):
        start.wait()
        for _ in range(200):
            spec = gft_forward(inputs[i])
            back = gft_inverse(spec)
            if not (np.array_equal(spec.values, expected[i][0])
                    and np.array_equal(back, expected[i][1])):
                wrong.append(i)
                return
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=transform_repeatedly, args=(i,))
                   for i in range(len(inputs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert sorted(done) == list(range(len(inputs)))


@pytest.mark.parametrize("n", range(1, 10))
def test_fft_gather_is_the_coset_order(n):
    assert np.array_equal(_program(n).gather, oracles.coset_order_gather(n))


@pytest.mark.parametrize("n", [8, 9])
def test_fft_parseval_and_roundtrip_beyond_the_dense_route(n):
    h = oracles.random_unit(RNG, math.factorial(n))
    assert abs(gft_forward(h, "unitary").total_energy() - 1.0) <= 1e-12
    for norm in ("plain", "unitary"):
        assert np.max(np.abs(gft_inverse(gft_forward(h, norm)) - h)) <= 1e-12


def test_qft_n2_frozen():
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert np.allclose(oracles.qft_matrix(2), expected, atol=1e-15)


def test_qft_orthogonal():
    for n in range(1, 6):
        f = oracles.qft_matrix(n)
        gram = f.T @ f
        assert np.max(np.abs(gram - np.eye(math.factorial(n)))) < 1e-10


def test_qft_delta_column_is_flattened_init_spectrum():
    for n in (3, 4):
        col = oracles.qft_matrix(n) @ delta_at_identity(n)
        spec = gft_forward(delta_at_identity(n), "unitary")
        flat = np.concatenate([spec.blocks[lam].ravel()
                               for lam in enumerate_partitions(n)])
        assert np.allclose(col, flat, atol=1e-12)
    # the spectrum's values are the QFT's output register, in its order
    for n in range(1, 6):
        h = RNG.standard_normal(math.factorial(n))
        assert np.max(np.abs(oracles.qft_matrix(n) @ h - gft_forward(h).values)) <= 1e-12


def test_qft_guard():
    with pytest.raises(DegreeGuardError):
        oracles.qft_matrix(8)


def test_convolve_with_delta_is_identity():
    n = 4
    h = RNG.standard_normal(24)
    assert np.allclose(convolve(delta_at_identity(n), h), h, atol=1e-12)


def test_convolve_matches_brute_double_sum():
    n = 4
    q = oracles.random_probability(RNG, 24)
    h = RNG.standard_normal(24)
    assert np.allclose(convolve(q, h), oracles.convolve_oracle(q, h, n), atol=1e-12)


def test_convolution_theorem_both_normalizations():
    n = 4
    q = oracles.random_probability(RNG, 24)
    h = RNG.standard_normal(24)
    direct = convolve(q, h)
    for norm in ("plain", "unitary"):
        qhat = gft_forward(q, norm)
        hhat = gft_forward(h, norm)
        spectral = convolve_spectra(qhat, hhat)
        target = gft_forward(direct, norm)
        for lam in enumerate_partitions(n):
            assert np.allclose(spectral.blocks[lam], target.blocks[lam], atol=1e-10)
        assert np.allclose(gft_inverse(spectral), direct, atol=1e-10)
    # plain blocks are the bare matrix product
    qhat = gft_forward(q, "plain")
    hhat = gft_forward(h, "plain")
    for lam in enumerate_partitions(n):
        assert np.allclose(qhat.blocks[lam] @ hhat.blocks[lam],
                           gft_forward(direct, "plain").blocks[lam], atol=1e-10)


@pytest.mark.parametrize("n", [8, 9])
def test_convolution_theorem_beyond_the_dense_route(n):
    # unlike Parseval and the round trip, this pins the gather: a direct-space
    # product, with q on 8 permutations, against the blockwise one
    fact = math.factorial(n)
    q = np.zeros(fact)
    q[RNG.choice(fact, size=8, replace=False)] = oracles.random_probability(RNG, 8)
    h = RNG.standard_normal(fact)
    spectral = convolve_spectra(gft_forward(q, "plain"), gft_forward(h, "plain"))
    direct = gft_forward(convolve(q, h), "plain")
    for lam in enumerate_partitions(n):
        assert np.max(np.abs(spectral.blocks[lam] - direct.blocks[lam])) <= 1e-10


def test_class_function_spectrum_is_scalar():
    n = 5
    lines = oracles.all_perms_lex(n)
    values = {}
    h = np.empty(math.factorial(n))
    for r, ol in enumerate(lines):
        ctype = oracles.cycle_type(ol)
        if ctype not in values:
            values[ctype] = RNG.uniform(0.1, 1.0)
        h[r] = values[ctype]
    spec = gft_forward(h, "plain")
    for lam, block in spec.blocks.items():
        off = block - np.diag(np.diag(block))
        assert np.linalg.norm(off) < 1e-10
        assert np.ptp(np.diag(block)) < 1e-10


def test_parseval_unitary():
    for n in range(2, 7):
        h = RNG.standard_normal(math.factorial(n))
        spec = gft_forward(h, "unitary")
        total = sum(np.sum(b * b) for b in spec.blocks.values())
        assert abs(total - np.sum(h * h)) < 1e-10


def test_left_shift_regular_action():
    for n in (4, 5):
        h = RNG.standard_normal(math.factorial(n))
        tau = Permutation(tuple(RNG.permutation(n) + 1))
        shifted = gft_forward(left_shift(tau, h), "unitary")
        base = gft_forward(h, "unitary")
        for lam in enumerate_partitions(n):
            expected = irrep_of(lam, tau) @ base.blocks[lam]
            assert np.allclose(shifted.blocks[lam], expected, atol=1e-10)


def marginal_matrix(h, n):
    # p[i, j] = probability that item i+1 sits at position j+1
    p = np.zeros((n, n))
    for r, ol in enumerate(oracles.all_perms_lex(n)):
        for i, pos in enumerate(ol):
            p[i, pos - 1] += h[r]
    return p


def test_first_order_marginals_live_in_two_blocks():
    n = 5
    h = oracles.random_probability(RNG, math.factorial(n))
    full = marginal_matrix(h, n)
    assert np.linalg.matrix_rank(full - 1.0 / n, tol=1e-12) <= n - 1
    spec = gft_forward(h, "unitary")
    keep = {Partition((n,)), Partition((n - 1, 1))}
    blocks = {lam: (b if lam in keep else np.zeros_like(b))
              for lam, b in spec.blocks.items()}
    projected = gft_inverse(oracles.spectrum_from_blocks(n, "unitary", blocks))
    assert np.allclose(marginal_matrix(projected, n), full, atol=1e-10)


def _spectrum(n, normalization="plain"):
    return FourierSpectrum(n, normalization, np.zeros(math.factorial(n)))


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "gft_forward-normalization": (lambda: gft_forward(np.ones(6), "orthonormal"),
                                  ValueError, "unknown normalization 'orthonormal'"),
    "convolve-degree": (lambda: convolve(np.ones(6), np.ones(2)),
                        ValueError, "must share the same degree"),
    "convolve_spectra-degree": (lambda: convolve_spectra(_spectrum(3), _spectrum(2)),
                                ValueError, "spectra must share the same degree"),
    "convolve_spectra-normalization": (
        lambda: convolve_spectra(_spectrum(3), _spectrum(3, "unitary")),
        ValueError, "spectra must share the same normalization"),
    "left_shift-degree": (lambda: left_shift(Permutation((2, 1)), np.ones(6)),
                          ValueError, "shift degree and function degree differ"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
