"""Self-check battery behind the verify subcommand.

Each check re-derives one contract of the library from scratch and reports
PASS/FAIL with a one-line detail. The battery is deterministic for a given
seed; n_max controls how far the exhaustive and randomized sweeps go.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .conditioning import (
    Observation,
    _consistent_mask,
    bayes_update,
    reorder_update_condition,
    success_probability_conditioning,
)
from .diffusion import (
    DiffusionStep,
    apply_diffusion_spectral,
    kernel_as_function,
    success_probability_lower_bound,
    success_probability_t0,
)
from .errors import check_degree
from .partitions import irrep_dimension
from .perms import (
    adjacent_transposition,
    adjacent_update,
    all_one_lines,
    compose,
    lehmer_decode,
    lehmer_encode,
    lehmer_rank,
    lehmer_unrank,
)
from .pipeline import ModelState, encode_distribution, sample_fourier
from .transform import convolve, convolve_spectra, delta_spectrum, gft_forward


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_probability(rng, size):
    h = rng.random(size) + 0.05
    return h / h.sum()


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


def _check_lehmer_bijections(n_max, rng):
    name = "lehmer bijections"
    top = min(n_max, 6)
    count = 0
    for n in range(2, top + 1):
        lines = all_one_lines(n)
        for rank in range(math.factorial(n)):
            perm = lehmer_decode(lehmer_unrank(rank, n))
            if perm.one_line != tuple(int(v) for v in lines[rank]):
                return CheckResult(name, False, f"decode mismatch at n={n} rank={rank}")
            if lehmer_rank(lehmer_encode(perm)) != rank:
                return CheckResult(name, False, f"rank mismatch at n={n} rank={rank}")
            count += 1
    return CheckResult(name, True, f"{count} ranks round-tripped, n <= {top}")


def _check_adjacent_update(n_max, rng):
    name = "adjacent-swap rank update"
    top = min(n_max, 5)
    cases = 0
    for n in range(2, top + 1):
        for rank in range(math.factorial(n)):
            code = lehmer_unrank(rank, n)
            sigma = lehmer_decode(code)
            for k in range(1, n):
                oracle = lehmer_encode(compose(sigma, adjacent_transposition(n, k)))
                if adjacent_update(code, k) != oracle:
                    return CheckResult(name, False, f"mismatch at n={n} rank={rank} k={k}")
                cases += 1
    return CheckResult(name, True, f"{cases} digit updates matched the oracle")


def _check_parseval(n_max, rng):
    name = "parseval"
    worst = 0.0
    for n in range(2, n_max + 1):
        for _ in range(6):
            # unit vectors, the states the pipeline transforms: on a raw
            # standard-normal draw the sum's rounding alone grows with n!
            h = rng.standard_normal(math.factorial(n))
            h /= np.linalg.norm(h)
            err = abs(gft_forward(h, "unitary").total_energy() - float(h @ h))
            worst = max(worst, err)
    return CheckResult(name, worst <= 1e-10, f"max |energy - norm^2| = {worst:.2e}")


def _check_convolution_duality(n_max, rng):
    name = "convolution duality"
    # convolve costs one n!-long left shift per nonzero entry of q: a dense q
    # up to n = 7, then q on 8 random permutations
    top = min(n_max, 7)
    worst = 0.0
    for n in range(2, n_max + 1):
        fact = math.factorial(n)
        for _ in range(4):
            if n <= top:
                q = _random_probability(rng, fact)
            else:
                q = np.zeros(fact)
                q[rng.choice(fact, size=8, replace=False)] = _random_probability(rng, 8)
            h = rng.standard_normal(fact)
            direct = convolve(q, h)
            for normalization in ("plain", "unitary"):
                lhs = convolve_spectra(
                    gft_forward(q, normalization), gft_forward(h, normalization)
                )
                rhs = gft_forward(direct, normalization)
                for lam, block in rhs.blocks.items():
                    worst = max(
                        worst, float(np.max(np.abs(lhs.blocks[lam] - block)))
                    )
    sweeps = f"dense n <= {top}"
    if n_max > top:
        sweeps += f", 8-point sparse n = 8..{n_max}"
    return CheckResult(name, worst <= 1e-10, f"max block deviation = {worst:.2e}, {sweeps}")


def _check_claim1(n_max, rng):
    name = "claim 1: start-state success"
    worst = 0.0
    for n in range(2, n_max + 1):
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            step = DiffusionStep(p)
            _, measured = apply_diffusion_spectral(delta_spectrum(n), step)
            worst = max(worst, abs(measured - success_probability_t0(n, p)))
    return CheckResult(name, worst <= 1e-10, f"max |measured - closed form| = {worst:.2e}")


def _check_claim2(n_max, rng):
    name = "claim 2: success lower bound"
    trials = 0
    for n in range(2, n_max + 1):
        fact = math.factorial(n)
        for _ in range(10):
            p = float(rng.uniform(0.51, 0.99))
            d = int(rng.integers(1, 4))
            psi = np.sqrt(_random_probability(rng, fact))
            step = DiffusionStep(p, d)
            _, measured = apply_diffusion_spectral(gft_forward(psi, "unitary"), step)
            bound = success_probability_lower_bound(n, p, d)
            if bound.value is None or measured < bound.value - 1e-12:
                return CheckResult(name, False, f"violated at n={n} p={p:.3f} d={d}")
            trials += 1
        for p in (Fraction(1, 3), Fraction(2, 5)):
            bound = success_probability_lower_bound(n, p, 1)
            if bound.value is None:
                continue
            psi = np.sqrt(_random_probability(rng, fact))
            step = DiffusionStep(p)
            _, measured = apply_diffusion_spectral(gft_forward(psi, "unitary"), step)
            if measured < bound.value - 1e-12:
                return CheckResult(name, False, f"violated at n={n} p={p}")
            trials += 1
    return CheckResult(name, True, f"{trials} dominance trials, zero violations")


def _check_claim3(n_max, rng):
    name = "claim 3: conditioning success"
    worst = 0.0
    for n in range(2, n_max + 1):
        fact = math.factorial(n)
        for _ in range(8):
            h = _random_probability(rng, fact)
            obs = _random_observation(rng, n)
            formula = success_probability_conditioning(h, obs)
            _, measured = bayes_update(encode_distribution(h, "amplitude"), obs, "amplitude")
            worst = max(worst, abs(formula - measured))
    return CheckResult(name, worst <= 1e-10, f"max |formula - measured| = {worst:.2e}")


def _check_schur_diagonality(n_max, rng):
    name = "schur diagonality"
    worst = 0.0
    for n in range(2, n_max + 1):
        for p in (0.3, 0.8):
            step = DiffusionStep(p)
            spectrum = gft_forward(kernel_as_function(step, n), "plain")
            for lam, block in spectrum.blocks.items():
                off = block - np.diag(np.diag(block))
                worst = max(worst, float(np.max(np.abs(off))))
                diag_err = np.max(np.abs(np.diag(block) - float(step.eigenvalue(lam))))
                worst = max(worst, float(diag_err))
    return CheckResult(name, worst <= 1e-10, f"max off-diagonal/eigenvalue error = {worst:.2e}")


def _check_plancherel_sampling(n_max, rng):
    name = "plancherel sampling"
    n = min(n_max, 4)
    fact = math.factorial(n)
    amps = np.zeros(fact)
    amps[0] = 1.0
    state = ModelState(amplitudes=amps, encoding="amplitude")
    count = 20_000
    draws, exact = sample_fourier(state, count, seed=int(rng.integers(2**32)))
    worst = max(
        abs(exact[lam] - irrep_dimension(lam) ** 2 / fact) for lam in exact
    )
    if worst > 1e-12:
        return CheckResult(name, False, f"exact distribution off by {worst:.2e}")
    # per-label z-test at 5 sigma; deterministic given the battery seed
    for lam, p in exact.items():
        observed = sum(1 for d in draws if d == lam)
        sigma = math.sqrt(count * p * (1.0 - p))
        if abs(observed - count * p) > 5.0 * sigma:
            return CheckResult(
                name, False, f"{lam.parts}: {observed} draws vs {count * p:.0f} expected"
            )
    return CheckResult(name, True, f"exact match {worst:.2e}; {count} draws within 5 sigma")


def _window_digits(vals, window: str) -> np.ndarray:
    """Lehmer digits of the window slots, row by row, from the values they hold.

    A front-window digit counts the smaller values in all later slots, which
    is v - 1 less the smaller values earlier in the window; a back-window
    digit counts them in the later window slots only, so there any values in
    the same relative order, such as chain ranks, give the same digits.
    """
    vals = np.atleast_2d(vals)
    out = np.empty_like(vals)
    for m in range(vals.shape[1]):
        if window == "front":
            out[:, m] = vals[:, m] - 1 - np.sum(vals[:, :m] < vals[:, m:m + 1], axis=1)
        else:
            out[:, m] = np.sum(vals[:, m + 1:] < vals[:, m:m + 1], axis=1)
    return out


def _window_mask(obs: Observation, n: int, window: str) -> np.ndarray:
    """Consistency read from window digits: pi moves the touched slots idx into
    the window in ascending order, so window slot m of sigma*pi holds sigma(idx[m])."""
    # surrogate window values: assigned positions, or ranks along the chain
    pairs = (zip(obs.indices, obs.values) if obs.kind == "assignment"
             else ((item, rank) for rank, item in enumerate(obs.items)))
    idx, surrogate = zip(*sorted(pairs))
    moved = all_one_lines(n)[:, [i - 1 for i in idx]]
    expected = _window_digits(surrogate, window)
    return np.all(_window_digits(moved, window) == expected, axis=1)


def _check_reorder_equivalence(n_max, rng):
    name = "reorder-update equivalence"
    cases = 0
    for n in range(2, n_max + 1):
        fact = math.factorial(n)
        for _ in range(10):
            obs = _random_observation(rng, n)
            encoding = "amplitude" if rng.random() < 0.5 else "born"
            psi = encode_distribution(_random_probability(rng, fact), encoding)
            _, _, cost = reorder_update_condition(psi, obs, encoding)
            if not np.array_equal(_window_mask(obs, n, cost.window),
                                  _consistent_mask(obs, all_one_lines(n))):
                return CheckResult(name, False, f"window mask differs at n={n}")
            budget = len(obs.touched()) * n
            if cost.swaps > budget:
                return CheckResult(name, False, f"swap budget exceeded at n={n}")
            cases += 1
    return CheckResult(name, True, f"{cases} window masks equal the direct mask; swaps <= k*n")


_CHECKS = (
    _check_lehmer_bijections,
    _check_adjacent_update,
    _check_parseval,
    _check_convolution_duality,
    _check_claim1,
    _check_claim2,
    _check_claim3,
    _check_schur_diagonality,
    _check_plancherel_sampling,
    _check_reorder_equivalence,
)


def run_battery(n_max: int, seed: int = 0, guard: int | None = None) -> list[CheckResult]:
    check_degree(n_max, guard)
    if n_max < 2:
        raise ValueError("the battery needs n_max >= 2")
    rng = np.random.default_rng(seed)
    return [check(n_max, rng) for check in _CHECKS]


def format_table(results) -> str:
    width = max(len(result.name) for result in results)
    lines = [
        f"{result.name:<{width}}  {'PASS' if result.passed else 'FAIL'}  {result.detail}"
        for result in results
    ]
    passed = sum(result.passed for result in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
