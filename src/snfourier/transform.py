"""Fast Fourier transform on S_n, group convolution and the regular action.

Functions on the group are plain float arrays of length n! indexed by Lehmer
rank; the degree is recovered from the length. A spectrum is one array of
n! = sum_lam d_lam^2 amplitudes in the QFT's (lam, i, j) order: the d x d
block of each partition, row-major, with partitions in canonical (reverse
lexicographic) order. This module alone maps blocks to offsets, through
FourierSpectrum.blocks. A spectrum is under either the plain normalization
(forward sum as-is) or the unitary one, which scales each block by
sqrt(d / n!) and turns the transform into an isometry.

The forward and inverse transforms run Clausen's coset recursion along
S_1 < S_2 < ... < S_n (M. Clausen, "Fast generalized Fourier transforms",
Theor. Comput. Sci. 67, 1989): a function on S_k is k functions on the left
cosets of S_{k-1}, and Young's orthogonal form restricted to S_{k-1} is
block-diagonal over the corners of lam, so each level costs one matrix
product per (lam, corner) pair and no n!-long stack of matrices is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_degree
from .partitions import Partition, enumerate_partitions, irrep_dimension
from .perms import Permutation, all_one_lines, encode_batch
from .yor import coset_slabs
# no library code calls this; perfbench/spans.py patches it by name
from .yor import irrep_stack

NORMALIZATIONS = ("plain", "unitary")


def function_degree(values) -> int:
    """Degree n with n! == len(values); rejects non-factorial lengths and guarded n."""
    size = len(values)
    n, fact = 1, 1
    while fact < size:
        n += 1
        fact *= n
    if fact != size:
        raise ValueError(f"length {size} is not a factorial")
    return check_degree(n)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """The n! amplitudes of a transformed function, in the QFT's order."""

    n: int
    normalization: str
    values: np.ndarray

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        fact = math.factorial(self.n)
        if self.values.shape != (fact,):
            raise ValueError(f"values must be a flat array of n! = {fact} entries")

    @property
    def blocks(self) -> dict[Partition, np.ndarray]:
        """Block lam as a d x d view of values, partitions in canonical order."""
        blocks, start = {}, 0
        for lam in enumerate_partitions(self.n):
            d = irrep_dimension(lam)
            blocks[lam] = self.values[start:start + d * d].reshape(d, d)
            start += d * d
        return blocks

    def energies(self) -> dict[Partition, float]:
        """Squared Frobenius norm per block, the Fourier-sampling weights."""
        return {lam: float(np.sum(b * b)) for lam, b in self.blocks.items()}

    def total_energy(self) -> float:
        return sum(self.energies().values())

    def sampling_distribution(self) -> dict[Partition, float]:
        """Weak Fourier sampling: Pr(lam) = block energy / total energy.

        The energies are summed over values times the power of two that puts
        the largest magnitude in [1/2, 1). That scaling is exact, so the
        ratios keep their bits, while no square overflows and the total
        underflows only for the zero function.
        """
        if self.normalization != "unitary":
            raise ValueError("the sampling distribution needs a unitary spectrum")
        _, exponent = np.frexp(np.max(np.abs(self.values)))
        scaled = FourierSpectrum(self.n, "unitary", np.ldexp(self.values, -exponent))
        energies = scaled.energies()
        total = sum(energies.values())
        if total <= 0:
            raise ValueError("the zero function has no sampling distribution")
        return {lam: energy / total for lam, energy in energies.items()}


def delta_spectrum(n: int, normalization: str = "unitary") -> FourierSpectrum:
    """Spectrum of the point mass at the identity, in closed form.

    Every block is the identity, times sqrt(d/n!) under the unitary
    normalization; cheap at any degree since no representation matrices are
    summed.
    """
    check_degree(n)
    fact = math.factorial(n)
    spectrum = FourierSpectrum(n, normalization, np.zeros(fact))
    for block in spectrum.blocks.values():
        scale = math.sqrt(len(block) / fact) if normalization == "unitary" else 1.0
        np.fill_diagonal(block, scale)
    return spectrum


@lru_cache(maxsize=None)
def _fft_plan(n: int):
    """Rank gather and per-level coset slabs of the degree-n FFT.

    Position x = (j_n, ..., j_2) in mixed radix, j_n most significant, holds
    sigma = c^(n)_{j_n} ... c^(2)_{j_2}, where c^(k)_j sends k to j+1; the
    gather maps x to the Lehmer rank of that sigma. As j_k = #{i < k :
    sigma(i) < sigma(k)}, x is the rank of sigma's one-line form reversed.
    Level k = 2..n holds the count n!/k! of S_k cosets and, per partition
    lam of k in canonical order, its dimension and slabs.
    """
    position = encode_batch(all_one_lines(n)[:, ::-1])
    gather = np.empty_like(position)
    gather[position] = np.arange(len(position))
    gather.setflags(write=False)
    levels = []
    for k in range(2, n + 1):
        previous = enumerate_partitions(k - 1)
        levels.append((k, math.factorial(n) // math.factorial(k), tuple(
            (irrep_dimension(lam), coset_slabs(lam, previous))
            for lam in enumerate_partitions(k)
        )))
    return gather, tuple(levels)


def gft_forward(h, normalization: str = "unitary") -> FourierSpectrum:
    """Forward transform: block_lam = sum_sigma h(sigma) rho_lam(sigma).

    Runs the coset recursion of `_fft_plan`. Level k holds, per partition
    lam of k, the transposed blocks of all n!/k! coset functions as one
    (d, n!/k!, d) array: column, coset, row. Each corner mu of lam is then
    one matrix product of the level below, whose k cosets of S_{k-1} lie
    side by side, with the transposed slab.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    values = np.ascontiguousarray(h, dtype=np.float64)
    n = function_degree(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite")
    fact = math.factorial(n)
    gather, levels = _fft_plan(n)
    prev = [values[gather].reshape(1, fact, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, batch, level in levels:
            cur = []
            for d, slabs in level:
                block = np.empty((d, batch, d))
                for mu, lo, hi, _, slab_t in slabs:
                    cosets = prev[mu].reshape((hi - lo) * batch, k * (hi - lo))
                    np.dot(cosets, slab_t, out=block[lo:hi].reshape(-1, d))
                cur.append(block)
            prev = cur
    spectrum = FourierSpectrum(n, normalization, np.empty(fact))
    for block, top in zip(spectrum.blocks.values(), prev):
        block[...] = top[:, 0].T
        if normalization == "unitary":
            block *= math.sqrt(len(block) / fact)
    if not np.isfinite(spectrum.values).all():
        raise ValueError("the transform overflowed double range")
    return spectrum


def gft_inverse(spectrum: FourierSpectrum) -> np.ndarray:
    """Inverse transform back to a rank-indexed array; exact round-trip.

    The forward recursion run backwards with the slabs untransposed: for
    sigma = c_j pi, sum_ab rho(sigma)_ab G_ab splits over the corners mu
    into the mu blocks of rho(c_j)^T G paired with rho_mu(pi).
    """
    n = spectrum.n
    fact = math.factorial(n)
    gather, levels = _fft_plan(n)
    cur = []
    for block in spectrum.blocks.values():
        d = len(block)
        scale = d / fact if spectrum.normalization == "plain" else math.sqrt(d / fact)
        cur.append(scale * block.T[:, None])
    for k, _, level in reversed(levels):
        prev = [None] * len(enumerate_partitions(k - 1))
        for block, (d, slabs) in zip(cur, level):
            for mu, lo, hi, slab, _ in slabs:
                part = np.dot(block[lo:hi].reshape(-1, d), slab)
                if prev[mu] is None:
                    prev[mu] = part.reshape(hi - lo, -1, hi - lo)
                else:
                    prev[mu] += part.reshape(prev[mu].shape)
        cur = prev
    out = np.empty(fact)
    out[gather] = cur[0].ravel()
    return out


def convolve(q, h) -> np.ndarray:
    """Group convolution (q * h)(sigma) = sum_tau q(sigma tau^-1) h(tau),
    summed as q * h = sum_{g : q(g) != 0} q(g) left_shift(g, h)."""
    qv = np.ascontiguousarray(q, dtype=np.float64)
    hv = np.ascontiguousarray(h, dtype=np.float64)
    n = function_degree(qv)
    if len(hv) != len(qv):
        raise ValueError("convolution operands must share the same degree")
    out = np.zeros(len(qv))
    for g in np.flatnonzero(qv):
        out += qv[g] * left_shift(Permutation(all_one_lines(n)[g]), hv)
    return out


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
    out = FourierSpectrum(qhat.n, qhat.normalization, np.empty(fact))
    for qb, hb, block in zip(qhat.blocks.values(), hhat.blocks.values(),
                             out.blocks.values()):
        np.matmul(qb, hb, out=block)
        if qhat.normalization == "unitary":
            block *= math.sqrt(fact / len(block))
    return out


def left_shift(tau: Permutation, h) -> np.ndarray:
    """Left-regular action: the result at rank(tau sigma) is h at rank(sigma)."""
    values = np.asarray(h, dtype=np.float64)
    n = function_degree(values)
    if tau.n != n:
        raise ValueError("shift degree and function degree differ")
    slots = all_one_lines(n).T  # slot-major: row i is slot i of every rank
    lookup = np.asarray((0,) + tau.one_line, dtype=np.uint8)  # lookup[v] = tau(v)
    shifted = np.empty_like(slots)
    for i in range(n):
        np.take(lookup, slots[i], out=shifted[i])
    out = np.empty_like(values)
    out[encode_batch(shifted.T)] = values
    return out
