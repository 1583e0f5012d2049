"""Lazy random-transposition diffusion and its success-probability accounting.

The kernel stays put with probability p and otherwise moves by a uniformly
random transposition. It is a class function, so its spectrum is c_lam times
the identity in every block; applying d steps scales block lam by c_lam^d.
Eigenvalues are kept as exact rationals until the final float conversion so
the rational-regime lower bound sees the true denominator of p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ANNIHILATION_TOL, UNIT_NORM_TOL, AnnihilatedStateError
from .partitions import diffusion_eigenvalue, enumerate_partitions
from .perms import Permutation, lehmer_encode, lehmer_rank
from .transform import FourierSpectrum

Probability = Union[float, Fraction, int]


@dataclass(frozen=True)
class DiffusionKernel:
    """Stay probability p, degree n, number of walk steps d."""

    p: Probability
    n: int
    d: int = 1

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"stay probability must lie in [0, 1], got {self.p}")
        if self.n < 2:
            raise ValueError("diffusion needs n >= 2")
        if self.d < 1:
            raise ValueError("step count must be >= 1")

    def eigenvalue(self, lam) -> Fraction:
        return diffusion_eigenvalue(lam, self.p)


def kernel_as_function(kernel: DiffusionKernel) -> np.ndarray:
    """Rank-indexed kernel values: p at e, (1-p)/C(n,2) at transpositions."""
    n = kernel.n
    q = np.zeros(math.factorial(n))
    p = float(kernel.p)
    q[0] = p
    weight = (1.0 - p) / math.comb(n, 2)
    for i, j in combinations(range(1, n + 1), 2):
        line = list(range(1, n + 1))
        line[i - 1], line[j - 1] = j, i
        q[lehmer_rank(lehmer_encode(Permutation(tuple(line))))] = weight
    return q


def _step_scales(kernel: DiffusionKernel) -> dict:
    return {
        lam: float(kernel.eigenvalue(lam) ** kernel.d)
        for lam in enumerate_partitions(kernel.n)
    }


def _require_unit_unitary(spectrum: FourierSpectrum, what: str):
    if spectrum.normalization != "unitary":
        raise ValueError(f"{what} expects a unitary-normalized spectrum")
    if abs(spectrum.total_energy() - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{what} expects the spectrum of a unit-norm state")


def apply_diffusion_spectral(
    spectrum: FourierSpectrum, kernel: DiffusionKernel
) -> tuple[FourierSpectrum, float]:
    """Scale each block by c_lam^d and renormalize; returns (state, p_s).

    p_s is the post-selection success probability sum_lam c_lam^(2d) of the
    block energies, measured before renormalization.
    """
    if kernel.n != spectrum.n:
        raise ValueError("kernel degree and spectrum degree differ")
    _require_unit_unitary(spectrum, "apply_diffusion_spectral")
    scales = _step_scales(kernel)
    p_s = sum(
        scales[lam] ** 2 * e for lam, e in spectrum.energies().items()
    )
    if p_s <= ANNIHILATION_TOL:
        raise AnnihilatedStateError("diffusion annihilated the entire state")
    root = math.sqrt(p_s)
    blocks = {
        lam: (scales[lam] / root) * block for lam, block in spectrum.blocks.items()
    }
    return FourierSpectrum(spectrum.n, "unitary", blocks), p_s


def apply_diffusion_born(
    spectrum: FourierSpectrum, kernel: DiffusionKernel
) -> tuple[FourierSpectrum, float]:
    """Diffuse square-root amplitudes; returns (state, renormalization).

    Identical block scaling to the probability route; the returned scalar is
    the norm of the scaled state, which matches the direct-space norm of the
    convolved amplitudes.
    """
    if kernel.n != spectrum.n:
        raise ValueError("kernel degree and spectrum degree differ")
    _require_unit_unitary(spectrum, "apply_diffusion_born")
    scales = _step_scales(kernel)
    squared = sum(
        scales[lam] ** 2 * e for lam, e in spectrum.energies().items()
    )
    if squared <= ANNIHILATION_TOL:
        raise AnnihilatedStateError("diffusion annihilated the entire state")
    renorm = math.sqrt(squared)
    blocks = {
        lam: (scales[lam] / renorm) * block for lam, block in spectrum.blocks.items()
    }
    return FourierSpectrum(spectrum.n, "unitary", blocks), renorm


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
        value = float((2 * exact - 1) ** (2 * d))
        return DiffusionBound(value, "lazy", False, "constant in n")
    from_float = isinstance(p, float)
    for lam in enumerate_partitions(n):
        if diffusion_eigenvalue(lam, exact) == 0:
            return DiffusionBound(
                None, "rational", from_float,
                f"bound inapplicable: eigenvalue vanishes at {lam.parts}",
            )
    b = exact.denominator
    value = float(Fraction(4, b * b * n**4) ** d)
    note = "denominator read from the dyadic float value" if from_float \
        else "exact rational p"
    return DiffusionBound(value, "rational", from_float, note)
