"""Acceptance criteria: one numbered test per contract-level claim.

Each test registers with the acceptance fixture, which prints a PASS/FAIL
line per criterion in the terminal summary. Tolerances are pinned inline.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
from scipy import stats

import oracles
from snfourier.conditioning import (
    Observation,
    _consistent_mask,
    bayes_update,
    reorder_update_condition,
    success_probability_conditioning,
)
from snfourier.diffusion import (
    apply_diffusion_spectral,
    kernel_as_function,
)
from snfourier.partitions import (
    Partition,
    diffusion_eigenvalue,
    enumerate_partitions,
    irrep_dimension,
    kronecker_multiplicity,
    transposition_character_ratio,
)
from snfourier.perms import (
    Permutation,
    adjacent_transposition,
    adjacent_update,
    all_one_lines,
    compose,
    lehmer_decode,
    lehmer_encode,
    lehmer_rank,
    lehmer_unrank,
)
from snfourier.pipeline import (
    DiffusionStep,
    EmpiricalInitial,
    ExperimentPlan,
    ModelState,
    run_plan,
    sample_computational,
    sample_fourier,
    sharpen_map,
    state_prep_unitary,
    verify_posterior_block_encoding,
)
from snfourier.transform import (
    convolve,
    convolve_spectra,
    delta_spectrum,
    gft_forward,
)
from snfourier.verify import _window_mask
from snfourier.yor import irrep_of, standard_tableaux


def _random_observation(rng, n):
    s = 1.0 if rng.random() < 0.5 else float(rng.uniform(0.6, 0.95))
    if rng.random() < 0.5:
        k = int(rng.integers(1, n))
        return Observation(
            kind="assignment",
            s=s,
            indices=tuple(int(v) for v in rng.choice(n, size=k, replace=False) + 1),
            values=tuple(int(v) for v in rng.choice(n, size=k, replace=False) + 1),
        )
    k = int(rng.integers(2, n + 1))
    return Observation(
        kind="ranking",
        s=s,
        items=tuple(int(v) for v in rng.choice(n, size=k, replace=False) + 1),
    )


def _likelihood_vector(obs, n):
    return np.array([
        obs.s if oracles.consistency_predicate(obs, Permutation(row)) else 1.0 - obs.s
        for row in all_one_lines(n)
    ])


def test_criterion_01_start_state_success(acceptance):
    acceptance.start(
        1, "start-state diffusion success equals p^2 + 2(1-p)^2/(n(n-1)), n=2..7"
    )
    start = time.monotonic()
    for n in range(2, 8):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            step = DiffusionStep(p=p)
            _, measured = apply_diffusion_spectral(delta_spectrum(n), step)
            closed = p * p + 2.0 * (1.0 - p) ** 2 / (n * (n - 1))
            assert abs(measured - closed) <= 1e-10
    assert time.monotonic() - start < 60.0


def test_criterion_02_lower_bound_dominance(acceptance):
    acceptance.start(
        2, "measured diffusion success dominates the lazy and rational lower bounds"
    )
    rng = np.random.default_rng(2017)
    start = time.monotonic()
    for _ in range(500):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(0.501, 0.999))
        d = int(rng.integers(1, 4))
        state = rng.standard_normal(math.factorial(n))
        state /= np.linalg.norm(state)
        step = DiffusionStep(p=p, d=d)
        _, measured = apply_diffusion_spectral(gft_forward(state, "unitary"), step)
        assert measured >= (2.0 * p - 1.0) ** (2 * d) - 1e-12

    rational_trials = 0
    for p in (Fraction(1, 3), Fraction(2, 5), Fraction(1, 4), Fraction(3, 8)):
        b = p.denominator
        for n in range(2, 7):
            if any(diffusion_eigenvalue(lam, p) == 0 for lam in enumerate_partitions(n)):
                continue
            for d in (1, 2):
                state = rng.standard_normal(math.factorial(n))
                state /= np.linalg.norm(state)
                step = DiffusionStep(p=p, d=d)
                _, measured = apply_diffusion_spectral(
                    gft_forward(state, "unitary"), step
                )
                assert measured >= (4.0 / (b * b * n**4)) ** d - 1e-15
                rational_trials += 1
    assert rational_trials >= 20
    assert time.monotonic() - start < 300.0


def test_criterion_03_conditioning_success_identity(acceptance):
    acceptance.start(
        3, "conditioning success equals h(phi)^2 N'/N on 200 random triples"
    )
    rng = np.random.default_rng(3031)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        h = oracles.random_probability(rng, math.factorial(n))
        obs = _random_observation(rng, n)
        formula = success_probability_conditioning(h, obs)
        _, measured = bayes_update(h / np.linalg.norm(h), obs, "amplitude")
        assert abs(formula - measured) <= 1e-10


def test_criterion_04_fourier_stack(acceptance):
    acceptance.start(
        4, "Parseval + dual-route convolution on 50 functions; QFT orthogonality"
    )
    rng = np.random.default_rng(4041)
    cases = 0
    for n in range(2, 7):
        fact = math.factorial(n)
        for _ in range(10):
            h = rng.standard_normal(fact)
            assert abs(gft_forward(h, "unitary").total_energy() - float(h @ h)) <= 1e-10
            q = oracles.random_probability(rng, fact)
            direct = gft_forward(convolve(q, h), "unitary")
            spectral = convolve_spectra(
                gft_forward(q, "unitary"), gft_forward(h, "unitary")
            )
            for lam, block in direct.blocks.items():
                assert np.max(np.abs(spectral.blocks[lam] - block)) <= 1e-10
            cases += 1
    assert cases == 50
    for n in range(2, 6):
        f = oracles.qft_matrix(n)
        assert np.max(np.abs(f.T @ f - np.eye(f.shape[0]))) < 1e-10


def test_criterion_05_representation_dimensions(acceptance):
    acceptance.start(
        5, "hook dimensions = tableau counts (n<=8); sum d^2 = n!; trace ratio (n<=7)"
    )
    for n in range(1, 9):
        total = 0
        for lam in enumerate_partitions(n):
            d = irrep_dimension(lam)
            assert d == len(standard_tableaux(lam))
            total += d * d
        assert total == math.factorial(n)
    for n in range(2, 8):
        tau = adjacent_transposition(n, 1)
        for lam in enumerate_partitions(n):
            traced = np.trace(irrep_of(lam, tau)) / irrep_dimension(lam)
            assert abs(traced - float(transposition_character_ratio(lam))) <= 1e-10


def test_criterion_06_schur_diagonality(acceptance):
    acceptance.start(
        6, "diffusion kernel transform is scalar per block, n=2..7"
    )
    for n in range(2, 8):
        fact = math.factorial(n)
        pair_count = math.comb(n, 2)
        for p in (0.3, 0.8):
            weight = (1.0 - p) / pair_count
            # the kernel vanishes off 1 + C(n,2) points, so sum its support
            blocks = {}
            for lam in enumerate_partitions(n):
                acc = p * np.eye(irrep_dimension(lam))
                for i, j in itertools.combinations(range(1, n + 1), 2):
                    ol = list(range(1, n + 1))
                    ol[i - 1], ol[j - 1] = ol[j - 1], ol[i - 1]
                    acc += weight * irrep_of(lam, Permutation(tuple(ol)))
                blocks[lam] = acc
            step = DiffusionStep(p=p)
            for lam, block in blocks.items():
                off = block - np.diag(np.diag(block))
                assert float(np.sqrt(np.sum(off * off))) < 1e-10
                assert np.max(
                    np.abs(np.diag(block) - float(step.eigenvalue(lam)))
                ) < 1e-10
            if n <= 6:
                dense = gft_forward(kernel_as_function(step, n), "plain")
                for lam, block in blocks.items():
                    assert np.max(np.abs(dense.blocks[lam] - block)) <= 1e-12


def test_criterion_07_lehmer_layer(acceptance):
    acceptance.start(
        7, "rank/encode/decode bijections exhaustive n<=6; 480 adjacent updates at n=5"
    )
    for n in range(2, 7):
        lines = all_one_lines(n)
        for rank in range(math.factorial(n)):
            perm = lehmer_decode(lehmer_unrank(rank, n))
            assert perm.one_line == tuple(int(v) for v in lines[rank])
            assert lehmer_rank(lehmer_encode(perm)) == rank
    cases = 0
    for rank in range(120):
        code = lehmer_unrank(rank, 5)
        sigma = lehmer_decode(code)
        for k in range(1, 5):
            oracle = lehmer_encode(compose(sigma, adjacent_transposition(5, k)))
            assert adjacent_update(code, k) == oracle
            cases += 1
    assert cases == 480


def test_criterion_08_reorder_update_equivalence(acceptance):
    acceptance.start(
        8, "window-digit mask equals the direct Bayes mask on 500 cases, swaps <= k*n"
    )
    rng = np.random.default_rng(8081)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        obs = _random_observation(rng, n)
        encoding = "amplitude" if rng.random() < 0.5 else "born"
        h = oracles.random_probability(rng, math.factorial(n))
        psi = h / np.linalg.norm(h) if encoding == "amplitude" else np.sqrt(h)
        _, _, cost = reorder_update_condition(psi, obs, encoding)
        assert np.array_equal(_window_mask(obs, n, cost.window),
                              _consistent_mask(obs, all_one_lines(n)))
        budget = len(obs.touched()) * n
        assert cost.swaps <= budget


def _dense_shadow(plan):
    """Classical Markov + Bayes recursion via the dense stochastic matrix."""
    n = plan.n
    fact = math.factorial(n)
    if plan.initial == "identity":
        h = np.zeros(fact)
        h[0] = 1.0
    else:
        h = plan.initial.counts_vector(n)
        h = h / h.sum()
    for step in plan.steps:
        if isinstance(step, DiffusionStep):
            q = kernel_as_function(step, n)
            markov = oracles.markov_matrix_oracle(n, q)
            h = np.linalg.matrix_power(markov, step.d) @ h
        else:
            h = _likelihood_vector(step, n) * h
            h = h / h.sum()
    return h


def _dense_unrenormalized_norm(plan):
    """Squared norm after composing all step blocks without renormalizing."""
    n = plan.n
    fact = math.factorial(n)
    if plan.initial == "identity":
        psi = np.zeros(fact)
        psi[0] = 1.0
    else:
        h = plan.initial.counts_vector(n).astype(float)
        psi = h / np.linalg.norm(h)
    for step in plan.steps:
        if isinstance(step, DiffusionStep):
            q = kernel_as_function(step, n)
            markov = oracles.markov_matrix_oracle(n, q)
            psi = np.linalg.matrix_power(markov, step.d) @ psi
        else:
            psi = _likelihood_vector(step, n) * psi
    return float(psi @ psi)


def test_criterion_09_pipeline_shadow(acceptance):
    acceptance.start(
        9, "simulator posterior equals dense Markov+Bayes shadow; ledger product exact"
    )
    rng = np.random.default_rng(9091)
    fig1 = ExperimentPlan(
        n=3,
        steps=(
            DiffusionStep(p=0.5, d=1),
            Observation(kind="assignment", indices=(1,), values=(1,)),
        ),
    )
    plans = [fig1]
    for _ in range(30):
        n = int(rng.integers(2, 6))
        steps = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                steps.append(DiffusionStep(
                    p=float(rng.uniform(0.3, 0.95)), d=int(rng.integers(1, 3))
                ))
            else:
                obs = _random_observation(rng, n)
                if obs.s == 1.0:
                    obs = Observation(
                        kind=obs.kind, s=0.9, indices=obs.indices,
                        values=obs.values, items=obs.items,
                    )
                steps.append(obs)
        if rng.random() < 0.3:
            entries = tuple(
                (tuple(int(v) for v in rng.permutation(n) + 1), int(rng.integers(1, 4)))
                for _ in range(3)
            )
            plan = ExperimentPlan(
                n=n, steps=tuple(steps), initial=EmpiricalInitial(entries=entries),
                amplitude_empirical_ok=True,
            )
        else:
            plan = ExperimentPlan(n=n, steps=tuple(steps))
        plans.append(plan)

    for plan in plans:
        _, report = run_plan(plan)
        assert np.max(np.abs(report.posterior - _dense_shadow(plan))) <= 1e-10
        assert abs(report.p_total - _dense_unrenormalized_norm(plan)) <= 1e-10
    assert np.allclose(
        run_plan(fig1)[1].posterior, [0.75, 0.25, 0.0, 0.0, 0.0, 0.0], atol=1e-12
    )


def test_criterion_10_sampling_distributions(acceptance):
    acceptance.start(
        10, "basis sampling matches h^2 and h at 1e5 draws; delta spectrum is Plancherel"
    )
    rng = np.random.default_rng(10_101)
    n = 4
    fact = math.factorial(n)
    h = oracles.random_probability(rng, fact)
    count = 100_000

    amp = ModelState(amplitudes=h / np.linalg.norm(h), encoding="amplitude")
    ranks = np.array([
        lehmer_rank(lehmer_encode(Permutation(row)))
        for row in sample_computational(amp, count, seed=11).tolist()
    ])
    observed = np.bincount(ranks, minlength=fact)
    expected = (h * h) / np.sum(h * h) * count
    assert stats.chisquare(observed, expected).pvalue > 0.01

    born = ModelState(amplitudes=np.sqrt(h), encoding="born")
    ranks = np.array([
        lehmer_rank(lehmer_encode(Permutation(row)))
        for row in sample_computational(born, count, seed=12).tolist()
    ])
    observed = np.bincount(ranks, minlength=fact)
    assert stats.chisquare(observed, h * count).pvalue > 0.01

    delta = np.zeros(fact)
    delta[0] = 1.0
    state = ModelState(amplitudes=delta, encoding="amplitude")
    draws, exact = sample_fourier(state, 20_000, seed=13)
    for lam, prob in exact.items():
        assert abs(prob - irrep_dimension(lam) ** 2 / fact) <= 1e-12
    lams = list(exact)
    observed = np.array([sum(1 for d in draws if d == lam) for lam in lams])
    expected = np.array([exact[lam] for lam in lams]) * len(draws)
    assert stats.chisquare(observed, expected).pvalue > 0.01


def test_criterion_11_sharpening_monotone(acceptance):
    acceptance.start(
        11, "power sharpening keeps the argmax and grows the mode mass, m<=10"
    )
    rng = np.random.default_rng(11_111)
    for _ in range(100):
        amps = np.abs(rng.standard_normal(24)) + 1e-3
        amps /= np.linalg.norm(amps)
        state = ModelState(amplitudes=amps, encoding="amplitude")
        mode = int(np.argmax(amps))
        previous = float(amps[mode] ** 2)
        for m in range(1, 11):
            out, _ = sharpen_map(state.amplitudes, m)
            assert int(np.argmax(out)) == mode
            mass = float(out[mode] ** 2)
            assert mass >= previous - 1e-12
            previous = mass


def test_criterion_12_posterior_block_encoding(acceptance):
    acceptance.start(
        12, "copy-then-prepare circuit block-encodes diag(psi) at n=3; W^T W = I"
    )
    rng = np.random.default_rng(12_121)
    delta = np.zeros(6)
    delta[0] = 1.0
    vectors = [delta] + [
        v / np.linalg.norm(v) for v in rng.standard_normal((4, 6))
    ]
    for psi in vectors:
        report = verify_posterior_block_encoding(state_prep_unitary(psi))
        assert report.unitary_error < 1e-10
        assert report.diagonal_error < 1e-10
        assert np.max(np.abs(report.diagonal - psi)) < 1e-10
        assert report.ok


def test_criterion_13_kronecker_sanity(acceptance):
    acceptance.start(
        13, "triple-product multiplicities: hand-checked values and full symmetry, n<=5"
    )
    two_one = Partition((2, 1))
    for nu in ((3,), (2, 1), (1, 1, 1)):
        assert kronecker_multiplicity(two_one, two_one, Partition(nu)) == 1
    trivial = Partition((3,))
    for lam in enumerate_partitions(3):
        for mu in enumerate_partitions(3):
            expected = 1 if lam == mu else 0
            assert kronecker_multiplicity(trivial, lam, mu) == expected

    for n in (3, 4):
        parts = enumerate_partitions(n)
        for lam, mu, nu in itertools.product(parts, repeat=3):
            base = kronecker_multiplicity(lam, mu, nu)
            for ordering in itertools.permutations((lam, mu, nu)):
                assert kronecker_multiplicity(*ordering) == base

    rng = np.random.default_rng(13_131)
    parts5 = enumerate_partitions(5)
    for _ in range(40):
        lam, mu, nu = (parts5[int(i)] for i in rng.integers(0, len(parts5), size=3))
        base = kronecker_multiplicity(lam, mu, nu)
        for ordering in itertools.permutations((lam, mu, nu)):
            assert kronecker_multiplicity(*ordering) == base
