"""Lazy random-transposition diffusion and its success-probability accounting.

A DiffusionStep stays put with probability p and otherwise moves by a
uniformly random transposition, d times over; the degree n is the state's.
The kernel is a class function, so its spectrum is c_lam times the identity
in every block; applying d steps scales block lam by c_lam^d. Eigenvalues
stay exact rationals for the zero-eigenvalue test and so that the
rational-regime lower bound sees the true denominator b of p. The scales and
both bounds are float powers, whose cost does not depend on d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import PlanValidationError, check_unit_norm, renormalized
from .partitions import diffusion_eigenvalue, enumerate_partitions, \
    transposition_character_ratio
from .perms import Permutation, lehmer_encode, lehmer_rank
from .transform import FourierSpectrum

Probability = Union[float, Fraction, int]


@dataclass(frozen=True)
class DiffusionStep:
    """Stay probability p and number of walk steps d; errors name the field.

    A Fraction p keeps the spectral bound exact (rational regime).
    """

    p: Probability
    d: int = 1

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise PlanValidationError(
                "p", f"stay probability must lie in [0, 1], got {self.p}"
            )
        if self.d < 1:
            raise PlanValidationError("d", "step count must be an integer >= 1")

    def eigenvalue(self, lam) -> Fraction:
        return diffusion_eigenvalue(lam, self.p)


def _check_walk_degree(n: int) -> None:
    if n < 2:
        raise ValueError("diffusion needs n >= 2")


def kernel_as_function(step: DiffusionStep, n: int) -> np.ndarray:
    """Rank-indexed kernel values: p at e, (1-p)/C(n,2) at transpositions."""
    _check_walk_degree(n)
    q = np.zeros(math.factorial(n))
    p = float(step.p)
    q[0] = p
    weight = (1.0 - p) / math.comb(n, 2)
    for i, j in combinations(range(1, n + 1), 2):
        line = list(range(1, n + 1))
        line[i - 1], line[j - 1] = j, i
        q[lehmer_rank(lehmer_encode(Permutation(tuple(line))))] = weight
    return q


def float_power(base, exponent: int):
    """base ** exponent in floats, for an integer exponent >= 1 of any size."""
    if exponent < 2**53:
        return base**exponent
    # from 2**53 on every float exponent is even, so the sign follows the exact
    # exponent's parity; from 2**64 on every float base has reached magnitude
    # 0, 1 or inf, so the exponent is capped there
    magnitude = np.abs(base) ** float(min(exponent, 2**64))
    return np.copysign(magnitude, base) if exponent % 2 else magnitude


def _step_scales(step: DiffusionStep, n: int) -> dict:
    """c_lam^d per block, c_lam rounded once from the exact eigenvalue.

    With p = num/den and the character ratio a/b, c_lam is
    (num b + (den - num) a) / (den b); int true division rounds correctly,
    as float(Fraction) does.
    """
    _check_walk_degree(n)
    num, den = step.p.as_integer_ratio()
    scales = {}
    for lam in enumerate_partitions(n):
        a, b = transposition_character_ratio(lam).as_integer_ratio()
        scales[lam] = float(float_power((num * b + (den - num) * a) / (den * b), step.d))
    return scales


def apply_diffusion_spectral(
    spectrum: FourierSpectrum, step: DiffusionStep
) -> tuple[FourierSpectrum, float]:
    """Scale each block by c_lam^d and renormalize; returns (state, p_s).

    p_s is the post-selection success probability sum_lam c_lam^(2d) of the
    block energies, measured before renormalization.
    """
    if spectrum.normalization != "unitary":
        raise ValueError("diffusion expects a unitary-normalized spectrum")
    energies = spectrum.energies()
    check_unit_norm(sum(energies.values()))
    scales = _step_scales(step, spectrum.n)
    p_s = sum(scales[lam] ** 2 * e for lam, e in energies.items())
    factors = renormalized(np.array([scales[lam] for lam in energies]), p_s, "diffusion")
    blocks = {lam: f * spectrum.blocks[lam] for lam, f in zip(energies, factors)}
    return FourierSpectrum(spectrum.n, "unitary", blocks), p_s


def apply_diffusion_born(
    spectrum: FourierSpectrum, step: DiffusionStep
) -> tuple[FourierSpectrum, float]:
    """Diffuse square-root amplitudes; returns (state, renormalization).

    Identical block scaling to the probability route; the returned scalar is
    the norm of the scaled state, which matches the direct-space norm of the
    convolved amplitudes.
    """
    out, p_s = apply_diffusion_spectral(spectrum, step)
    return out, math.sqrt(p_s)


def success_probability_t0(n: int, p: Probability) -> float:
    """Closed-form first-step success probability from the point mass at e."""
    if n < 2:
        raise ValueError("needs n >= 2")
    p = float(p)
    return p * p + 2.0 * (1.0 - p) ** 2 / (n * (n - 1))


class DiffusionBound(NamedTuple):
    """Lower bound on the d-step success probability, or None with a reason."""

    value: Optional[float]
    regime: str
    from_float: bool
    note: str


def success_probability_lower_bound(
    n: int, p: Probability, d: int
) -> DiffusionBound:
    """Worst-case success bound: (2p-1)^2d when p > 1/2, else 4^d/(b n^2)^2d.

    The rational regime requires every eigenvalue nonzero and reads the exact
    denominator b of p; a float p is used as the dyadic rational it stores,
    reported via from_float.
    """
    if n < 2 or d < 1:
        raise ValueError("needs n >= 2 and d >= 1")
    if not 0 < p <= 1:
        raise ValueError(f"bound needs p in (0, 1], got {p}")
    exact = Fraction(p)
    if exact > Fraction(1, 2):
        value = float(float_power(float(2 * exact - 1), 2 * d))
        regime, from_float, note = "lazy", False, "constant in n"
    else:
        regime, from_float = "rational", isinstance(p, float)
        for lam in enumerate_partitions(n):
            if diffusion_eigenvalue(lam, exact) == 0:
                return DiffusionBound(
                    None, regime, from_float,
                    f"bound inapplicable: eigenvalue vanishes at {lam.parts}",
                )
        b = exact.denominator
        value = float(float_power(4 / (b * b * n**4), d))
        note = "denominator read from the dyadic float value" if from_float \
            else "exact rational p"
    if value == 0.0:
        # both regimes' exact bounds are positive, so a zero value is an underflow
        note += "; the positive bound underflows double precision to 0"
    return DiffusionBound(value, regime, from_float, note)
