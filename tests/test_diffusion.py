"""Lazy transposition walk: kernel, spectral application, success bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from snfourier.diffusion import DiffusionStep, _step_scales, apply_diffusion_born, \
    apply_diffusion_spectral, float_power, kernel_as_function, \
    success_probability_lower_bound, success_probability_t0
from snfourier.errors import AnnihilatedStateError, PlanValidationError
from snfourier.partitions import diffusion_eigenvalue, enumerate_partitions, \
    irrep_dimension
from snfourier.transform import FourierSpectrum, convolve, delta_spectrum, \
    gft_forward, gft_inverse

RNG = np.random.default_rng(23)


def random_unit_state(n):
    return oracles.random_unit(RNG, math.factorial(n))


@pytest.mark.parametrize("p", [0, 1, 0.7, Fraction(1, 3),
                               float(np.random.default_rng(71).random())])
def test_step_scales_round_the_exact_eigenvalue_once(p):
    # float(Fraction) keeps every bit of the integer-ratio rule, signed zero too
    for n in range(2, 10):
        for d in (1, 2, 3, 37, 2**60):
            step = DiffusionStep(p=p, d=d)
            scales = _step_scales(step, n)
            assert type(scales) is tuple
            expected = oracles.integer_ratio_scales(step, n)
            assert list(expected) == list(enumerate_partitions(n))
            assert [s.hex() for s in scales] == [s.hex() for s in expected.values()]


def test_step_scales_are_cached_per_step_and_degree():
    for p in (0.7123, Fraction(2, 3)):
        for n, d in ((4, 1), (6, 37), (9, 2)):
            step = DiffusionStep(p=p, d=d)
            first = _step_scales(step, n)
            # an equal step built anew hits the cache; a tuple is read-only
            assert _step_scales(DiffusionStep(p=p, d=d), n) is first
            assert type(first) is tuple
            fresh = _step_scales.__wrapped__(step, n)
            assert [s.hex() for s in first] == [s.hex() for s in fresh]


@pytest.mark.parametrize("p", [0, 0.3, 0.8, 1])
def test_kernel_is_byte_equal_to_the_transposition_loop(p):
    for n in range(2, 9):
        step = DiffusionStep(p=p)
        q = kernel_as_function(step, n)
        expected = oracles.transposition_loop_kernel(step, n)
        assert q.dtype == expected.dtype and q.tobytes() == expected.tobytes()


def test_kernel_frozen_n3():
    q = kernel_as_function(DiffusionStep(p=0.4), 3)
    assert np.allclose(q, [0.4, 0.2, 0.2, 0.0, 0.0, 0.2], atol=1e-15)


def test_kernel_p1_is_delta():
    q = kernel_as_function(DiffusionStep(p=1.0), 4)
    expected = np.zeros(24)
    expected[0] = 1.0
    assert np.array_equal(q, expected)


def test_kernel_normalization_and_support():
    for n in range(2, 7):
        for p in (0.1, 0.5, 0.9):
            q = kernel_as_function(DiffusionStep(p=p), n)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(q) == 1 + math.comb(n, 2)


def test_kernel_is_class_function():
    n = 5
    q = kernel_as_function(DiffusionStep(p=0.3), n)
    seen = {}
    for r, ol in enumerate(oracles.all_perms_lex(n)):
        ctype = oracles.cycle_type(ol)
        seen.setdefault(ctype, q[r])
        assert q[r] == seen[ctype]


def test_step_validation_names_the_field():
    for bad, field in ((dict(p=-0.1), "p"), (dict(p=1.5), "p"),
                       (dict(p=0.5, d=0), "d")):
        with pytest.raises(PlanValidationError) as err:
            DiffusionStep(**bad)
        assert err.value.field == field


def test_walk_needs_degree_two():
    step = DiffusionStep(p=0.5)
    with pytest.raises(ValueError, match="n >= 2"):
        kernel_as_function(step, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        apply_diffusion_spectral(delta_spectrum(1), step)
    with pytest.raises(ValueError, match="n >= 2"):
        apply_diffusion_born(delta_spectrum(1), step)


def test_claim1_worked_example():
    out, ps = apply_diffusion_spectral(delta_spectrum(3), DiffusionStep(p=0.5))
    assert ps == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ps == pytest.approx(success_probability_t0(3, 0.5), abs=1e-12)
    assert out.total_energy() == pytest.approx(1.0, abs=1e-12)


def test_p1_leaves_spectrum_alone():
    n = 4
    spec = gft_forward(random_unit_state(n), "unitary")
    out, ps = apply_diffusion_spectral(spec, DiffusionStep(p=1.0))
    assert ps == pytest.approx(1.0, abs=1e-12)
    for lam in enumerate_partitions(n):
        assert np.allclose(out.blocks[lam], spec.blocks[lam], atol=1e-12)


def test_float_power_takes_any_integer_exponent():
    base = np.array([-1.0, -0.75, -0.0, 0.0, 0.3, 1.0])
    for exponent in (1, 2, 3, 7, 2**53 - 1):
        assert np.array_equal(float_power(base, exponent), base**exponent)
    # past 2**53 the sign follows the exact parity, not the rounded float
    assert np.array_equal(float_power(base, 2**64 + 1),
                          [-1.0, -0.0, -0.0, 0.0, 0.0, 1.0])
    for even in (2**64, 10**400):
        assert np.array_equal(float_power(base, even),
                              [1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert float_power(-1.0, 10**400 + 1) == -1.0
    assert float_power(0.5, 10**400) == 0.0


def test_sign_block_keeps_the_parity_of_any_walk_length():
    # p = 0 at n = 3: eigenvalues 1, 0 and -1, so only d's parity matters
    spec = gft_forward(random_unit_state(3), "unitary")
    for short, long in ((1, 2**64 + 1), (2, 2**64)):
        out, ps = apply_diffusion_spectral(spec, DiffusionStep(p=0, d=short))
        out_long, ps_long = apply_diffusion_spectral(
            spec, DiffusionStep(p=0, d=long))
        assert ps_long == ps
        for lam, block in out.blocks.items():
            assert np.array_equal(out_long.blocks[lam], block)


def test_spectral_route_equals_direct_convolution():
    n = 4
    q = kernel_as_function(DiffusionStep(p=0.6), n)
    for d in (1, 2):
        h = random_unit_state(n)
        out, ps = apply_diffusion_spectral(
            gft_forward(h, "unitary"), DiffusionStep(p=0.6, d=d)
        )
        direct = h
        for _ in range(d):
            direct = convolve(q, direct)
        norm = np.linalg.norm(direct)
        assert ps == pytest.approx(norm**2, abs=1e-10)
        target = gft_forward(direct / norm, "unitary")
        for lam in enumerate_partitions(n):
            assert np.allclose(out.blocks[lam], target.blocks[lam], atol=1e-10)


def test_t0_formula_three_routes():
    for n in range(2, 8):
        fact = math.factorial(n)
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            closed = success_probability_t0(n, p)
            assert closed == pytest.approx(
                p * p + 2.0 * (1.0 - p) ** 2 / (n * (n - 1)), abs=1e-15
            )
            by_blocks = sum(
                float(diffusion_eigenvalue(lam, p)) ** 2
                * irrep_dimension(lam) ** 2 / fact
                for lam in enumerate_partitions(n)
            )
            assert closed == pytest.approx(by_blocks, abs=1e-10)
            _, measured = apply_diffusion_spectral(
                delta_spectrum(n), DiffusionStep(p=p)
            )
            assert closed == pytest.approx(measured, abs=1e-10)


def test_lower_bound_lazy_regime():
    b = success_probability_lower_bound(4, 0.75, 1)
    assert b.value == pytest.approx(0.25, abs=1e-15)
    assert b.regime == "lazy"
    assert success_probability_lower_bound(5, 1.0, 3).value == 1.0
    assert success_probability_lower_bound(6, 0.9, 2).value == pytest.approx(
        0.8**4, abs=1e-12
    )


def test_lower_bound_rational_regime():
    b = success_probability_lower_bound(4, Fraction(1, 3), 2)
    assert b.regime == "rational"
    assert not b.from_float
    assert b.value == pytest.approx(float(Fraction(4, 9 * 256) ** 2), abs=1e-20)
    f = success_probability_lower_bound(4, 0.3, 1)
    assert f.from_float
    assert f.value is not None and 0.0 < f.value < 1e-10


def test_lower_bound_says_when_it_underflows():
    kept = success_probability_lower_bound(7, Fraction(1, 3), 80)
    assert 0.0 < kept.value < 1e-298
    assert kept.note == "exact rational p"
    for p, d in ((Fraction(1, 3), 100), (0.7, 500)):
        bound = success_probability_lower_bound(7, p, d)
        assert bound.value == 0.0
        assert "underflows double precision" in bound.note
    assert success_probability_lower_bound(6, 0.9, 2).note == "constant in n"
    # the note costs nothing however large d is
    assert "underflows" in success_probability_lower_bound(3, Fraction(1, 3), 10**400).note


def test_lower_bound_inapplicable_when_eigenvalue_vanishes():
    # p = 1/2 kills the sign block
    b = success_probability_lower_bound(4, Fraction(1, 2), 1)
    assert b.value is None
    assert "inapplicable" in b.note


def test_lower_bound_rejects_p_zero():
    with pytest.raises(ValueError):
        success_probability_lower_bound(4, 0.0, 1)


def test_bound_dominated_by_measured():
    for _ in range(20):
        n = int(RNG.integers(2, 6))
        p = float(RNG.uniform(0.51, 0.99))
        d = int(RNG.integers(1, 4))
        spec = gft_forward(random_unit_state(n), "unitary")
        _, measured = apply_diffusion_spectral(spec, DiffusionStep(p=p, d=d))
        bound = success_probability_lower_bound(n, p, d)
        assert measured >= bound.value - 1e-12


def test_spectral_input_contract():
    n = 3
    plain = gft_forward(random_unit_state(n), "plain")
    with pytest.raises(ValueError):
        apply_diffusion_spectral(plain, DiffusionStep(p=0.5))
    unnormalized = gft_forward(2.0 * random_unit_state(n), "unitary")
    with pytest.raises(ValueError):
        apply_diffusion_spectral(unnormalized, DiffusionStep(p=0.5))


def test_annihilation_on_sign_state():
    # alternating state lives in the sign block alone; p = 1/2 zeroes it
    n = 3
    signs = np.array([(-1.0) ** sum(oracles.inversion_digits(ol))
                      for ol in oracles.all_perms_lex(n)])
    spec = gft_forward(signs / np.linalg.norm(signs), "unitary")
    with pytest.raises(AnnihilatedStateError):
        apply_diffusion_spectral(spec, DiffusionStep(p=0.5))


def test_born_uniform_fixed_point():
    psi = np.full(24, 1.0 / math.sqrt(24.0))
    out, renorm = apply_diffusion_born(
        gft_forward(psi, "unitary"), DiffusionStep(p=0.35)
    )
    assert renorm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(gft_inverse(out), psi, atol=1e-12)


def test_born_renorm_matches_direct_space():
    n = 4
    h = oracles.random_probability(RNG, 24)
    psi = np.sqrt(h)
    step = DiffusionStep(p=0.5)
    out, renorm = apply_diffusion_born(gft_forward(psi, "unitary"), step)
    direct = convolve(kernel_as_function(step, n), psi)
    assert renorm == pytest.approx(np.linalg.norm(direct), abs=1e-10)
    assert np.allclose(gft_inverse(out), direct / np.linalg.norm(direct), atol=1e-10)


def test_born_keeps_nonnegative_support():
    for _ in range(5):
        psi = np.sqrt(oracles.random_probability(RNG, 24, floor=0.0))
        out, _ = apply_diffusion_born(
            gft_forward(psi, "unitary"), DiffusionStep(p=0.7)
        )
        assert np.min(gft_inverse(out)) > -1e-12


def test_born_mixes_toward_uniform():
    n = 5
    fact = math.factorial(n)
    psi = np.sqrt(oracles.random_probability(RNG, fact))
    spec = gft_forward(psi, "unitary")
    step = DiffusionStep(p=0.5)
    uniform = np.full(fact, 1.0 / fact)
    tv = None
    for _ in range(25):
        spec, _ = apply_diffusion_born(spec, step)
        tv = oracles.tv_distance(gft_inverse(spec) ** 2, uniform)
        if tv < 0.01:
            break
    assert tv is not None and tv < 0.01


def test_markov_matrix_route():
    n = 3
    q = kernel_as_function(DiffusionStep(p=0.4), n)
    h = oracles.random_probability(RNG, 6)
    big_q = oracles.markov_matrix_oracle(n, q)
    assert np.allclose(big_q @ h, convolve(q, h), atol=1e-12)
    assert np.allclose(big_q.sum(axis=0), np.ones(6), atol=1e-12)


# per check: the call, its exception type and a fragment of its message
INPUT_CHECKS = {
    "t0-degree": (lambda: success_probability_t0(1, 0.5), ValueError, "needs n >= 2"),
    "lower_bound-degree": (lambda: success_probability_lower_bound(1, 0.5, 1),
                           ValueError, "needs n >= 2 and d >= 1"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks_raise(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and fragment in str(err.value)
