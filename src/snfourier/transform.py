"""Group Fourier transform on S_n and the dense QFT change of basis.

Functions on the group are plain float arrays of length n! indexed by Lehmer
rank; the degree is recovered from the length. Spectra hold one d x d block
per partition in canonical (reverse lexicographic) order under either the
plain normalization (forward sum as-is) or the unitary one, which scales each
block by sqrt(d / n!) and turns the transform into an isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from .errors import check_degree
from .partitions import Partition, enumerate_partitions, irrep_dimension
from .perms import Permutation, all_one_lines
from .yor import irrep_stack

NORMALIZATIONS = ("plain", "unitary")


def function_degree(values) -> int:
    """Degree n with n! == len(values); rejects non-factorial lengths."""
    size = len(values)
    n, fact = 1, 1
    while fact < size:
        n += 1
        fact *= n
    if fact != size:
        raise ValueError(f"length {size} is not a factorial")
    return n


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Per-partition blocks of a transformed function."""

    n: int
    normalization: str
    blocks: dict[Partition, np.ndarray]

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        expected = enumerate_partitions(self.n)
        if set(self.blocks) != set(expected):
            raise ValueError("blocks must cover exactly the partitions of n")
        for lam in expected:
            d = irrep_dimension(lam)
            if self.blocks[lam].shape != (d, d):
                raise ValueError(f"block {lam.parts} must be {d}x{d}")

    def energies(self) -> dict[Partition, float]:
        """Squared Frobenius norm per block, the Fourier-sampling weights."""
        return {lam: float(np.sum(b * b)) for lam, b in self.blocks.items()}

    def total_energy(self) -> float:
        return sum(self.energies().values())

    def sampling_distribution(self) -> dict[Partition, float]:
        """Weak Fourier sampling: Pr(lam) = block energy / total energy."""
        if self.normalization != "unitary":
            raise ValueError("the sampling distribution needs a unitary spectrum")
        total = self.total_energy()
        if total <= 0:
            raise ValueError("the zero function has no sampling distribution")
        return {lam: energy / total for lam, energy in self.energies().items()}


def delta_spectrum(n: int, normalization: str = "unitary") -> FourierSpectrum:
    """Spectrum of the point mass at the identity, in closed form.

    Every block is the identity, times sqrt(d/n!) under the unitary
    normalization; cheap at any degree since no representation matrices are
    summed.
    """
    check_degree(n)
    fact = math.factorial(n)
    blocks = {}
    for lam in enumerate_partitions(n):
        d = irrep_dimension(lam)
        scale = math.sqrt(d / fact) if normalization == "unitary" else 1.0
        blocks[lam] = scale * np.eye(d)
    return FourierSpectrum(n, normalization, blocks)


def gft_forward(h, normalization: str = "unitary") -> FourierSpectrum:
    """Forward transform: block_lam = sum_sigma h(sigma) rho_lam(sigma)."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    values = np.ascontiguousarray(h, dtype=np.float64)
    n = function_degree(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite")
    fact = math.factorial(n)
    blocks = {}
    for lam in enumerate_partitions(n):
        block = np.tensordot(values, irrep_stack(n, lam), axes=(0, 0))
        if normalization == "unitary":
            block *= math.sqrt(irrep_dimension(lam) / fact)
        blocks[lam] = block
    return FourierSpectrum(n, normalization, blocks)


def gft_inverse(spectrum: FourierSpectrum) -> np.ndarray:
    """Inverse transform back to a rank-indexed array; exact round-trip."""
    n = spectrum.n
    fact = math.factorial(n)
    out = np.zeros(fact)
    for lam, block in spectrum.blocks.items():
        d = irrep_dimension(lam)
        # sum_ij rho(sigma)_ij block_ij == tr(rho(sigma)^T block) for real rho
        traces = irrep_stack(n, lam).reshape(fact, d * d) @ block.ravel()
        if spectrum.normalization == "plain":
            out += (d / fact) * traces
        else:
            out += math.sqrt(d / fact) * traces
    return out


def qft_matrix(n: int) -> np.ndarray:
    """Dense n! x n! orthogonal Fourier basis change.

    Row (lam, i, j) holds sqrt(d/n!) rho_lam(sigma)_ij across column ranks,
    partitions in canonical order and (i, j) row-major within each block.
    Guarded at n <= 7; the matrix has (n!)^2 entries.
    """
    check_degree(n, guard=7)
    fact = math.factorial(n)
    rows = []
    for lam in enumerate_partitions(n):
        d = irrep_dimension(lam)
        scale = math.sqrt(d / fact)
        rows.append(scale * irrep_stack(n, lam).reshape(fact, d * d).T)
    return np.vstack(rows)


def convolve(q, h) -> np.ndarray:
    """Group convolution (q * h)(sigma) = sum_tau q(sigma tau^-1) h(tau)."""
    qv = np.ascontiguousarray(q, dtype=np.float64)
    hv = np.ascontiguousarray(h, dtype=np.float64)
    n = function_degree(qv)
    if len(hv) != len(qv):
        raise ValueError("convolution operands must share the same degree")
    # sigma[inv0] holds sigma tau^-1 for every tau, in rank order of tau
    inv0 = _backend.all_inverses0(n)
    return np.array([
        float(np.dot(qv[_backend.encode_batch(sigma[inv0])], hv))
        for sigma in _backend.all_perms0(n)
    ])


def convolve_spectra(qhat: FourierSpectrum, hhat: FourierSpectrum) -> FourierSpectrum:
    """Spectrum of q * h as blockwise products.

    Plain normalization multiplies blocks directly; the unitary one carries
    the compensating sqrt(n!/d) per block.
    """
    if qhat.n != hhat.n:
        raise ValueError("spectra must share the same degree")
    if qhat.normalization != hhat.normalization:
        raise ValueError("spectra must share the same normalization")
    fact = math.factorial(qhat.n)
    blocks = {}
    for lam, qb in qhat.blocks.items():
        block = qb @ hhat.blocks[lam]
        if qhat.normalization == "unitary":
            block *= math.sqrt(fact / irrep_dimension(lam))
        blocks[lam] = block
    return FourierSpectrum(qhat.n, qhat.normalization, blocks)


def left_shift(tau: Permutation, h) -> np.ndarray:
    """Left-regular action: the result at rank(tau sigma) is h at rank(sigma)."""
    values = np.asarray(h, dtype=np.float64)
    n = function_degree(values)
    if tau.n != n:
        raise ValueError("shift degree and function degree differ")
    lines = all_one_lines(n)
    tau_arr = np.asarray(tau.one_line, dtype=np.int64)
    shifted = tau_arr[lines - 1]
    out = np.empty_like(values)
    out[_backend.encode_batch(shifted)] = values
    return out
