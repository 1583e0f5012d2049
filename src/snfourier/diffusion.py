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
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import PlanValidationError, check_unit_norm, renormalized
from .partitions import diffusion_eigenvalue, enumerate_partitions
from .perms import all_one_lines
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
    """Rank-indexed kernel values: p at e, (1-p)/C(n,2) at the transpositions,
    the ranks whose one-line form moves exactly two items."""
    _check_walk_degree(n)
    p = float(step.p)
    slots = all_one_lines(n).T  # slot-major: row i is slot i of every rank
    moved = np.sum(slots != np.arange(1, n + 1, dtype=np.uint8)[:, None], axis=0, dtype=np.uint8)
    q = np.where(moved == 2, (1.0 - p) / math.comb(n, 2), 0.0)
    q[0] = p
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


@lru_cache(maxsize=256)
def _step_scales(step: DiffusionStep, n: int) -> tuple:
    """c_lam^d per partition of n in canonical order, c_lam rounded once.

    float(Fraction) rounds the exact eigenvalue correctly. Cached per
    (p, d, n): steps of equal p hash alike whether p is a float, int or
    Fraction, and have the same exact eigenvalues. The cache is bounded, as
    a long-lived caller may meet many p.
    """
    _check_walk_degree(n)
    return tuple(float(float_power(float(step.eigenvalue(lam)), step.d))
                 for lam in enumerate_partitions(n))


def apply_diffusion_spectral(
    spectrum: FourierSpectrum, step: DiffusionStep
) -> tuple[FourierSpectrum, float]:
    """Scale each block by c_lam^d and renormalize; returns (state, p_s).

    p_s is the post-selection success probability sum_lam c_lam^(2d) of the
    block energies, measured before renormalization.
    """
    if spectrum.normalization != "unitary":
        raise ValueError("diffusion expects a unitary-normalized spectrum")
    energies = spectrum.block_energies()
    check_unit_norm(sum(energies))
    scales = _step_scales(step, spectrum.n)
    p_s = sum(c ** 2 * e for c, e in zip(scales, energies))
    return spectrum.scaled(renormalized(np.array(scales), p_s, "diffusion")), p_s


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
