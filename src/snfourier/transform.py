"""Fast Fourier transform on S_n, group convolution and the regular action.

Functions on the group are plain float arrays of length n! indexed by Lehmer
rank; the degree is recovered from the length. A spectrum is one array of
n! = sum_lam d_lam^2 amplitudes in the QFT's (lam, i, j) order: the d x d
block of each partition, row-major, with partitions in canonical (reverse
lexicographic) order. This module alone maps blocks to offsets, through one
cached layout per degree, which FourierSpectrum.scaled reads to apply one
factor per block. A spectrum is under either the plain normalization (forward
sum as-is) or the unitary one, which scales each block by sqrt(d / n!) and
turns the transform into an isometry.

The forward and inverse transforms run Clausen's coset recursion along
S_1 < S_2 < ... < S_n (M. Clausen, "Fast generalized Fourier transforms",
Theor. Comput. Sci. 67, 1989): a function on S_k is k functions on the left
cosets of S_{k-1}, and Young's orthogonal form restricted to S_{k-1} is
block-diagonal over the corners of lam, so each level costs one matrix
product per (lam, corner) pair and no n!-long stack of matrices is built.
The recursion is unrolled once per degree into a program: one (operand view,
slab, output view) triple per (level, lam, corner), the views pointing into
two n!-long buffers that the levels fill in turn. A transform then runs the
triples in order, forward, or level by level backwards, inverse. The buffers
are the program's own, so each call holds the program's lock while it runs;
the slabs and the rank gather are read-only.
"""

from __future__ import annotations

import math
import threading
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
        return {lam: self.values[start:stop].reshape(d, d)
                for lam, start, stop, d in _block_layout(self.n)}

    def block_energies(self) -> list[float]:
        """Squared Frobenius norm per block, partitions in canonical order.

        All squares are taken at once, then each block's are summed by one
        reduction over its contiguous slice: the pairwise sum np.sum(b * b)
        runs, so the weights keep their bits.
        """
        squares = self.values * self.values
        return [float(np.add.reduce(squares[start:stop]))
                for _, start, stop, _ in _block_layout(self.n)]

    def energies(self) -> dict[Partition, float]:
        """The block energies keyed by partition, the Fourier-sampling weights."""
        return dict(zip(enumerate_partitions(self.n), self.block_energies()))

    def scaled(self, factors) -> FourierSpectrum:
        """This spectrum with block lam times factors[i], lam the i-th partition."""
        sizes = [d * d for *_, d in _block_layout(self.n)]
        return FourierSpectrum(self.n, self.normalization, self.values * np.repeat(factors, sizes))

    def total_energy(self) -> float:
        return sum(self.block_energies())

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
def _block_layout(n: int) -> tuple:
    """(lam, start, stop, d) per block of a degree-n spectrum, in canonical order."""
    layout, start = [], 0
    for lam in enumerate_partitions(n):
        d = irrep_dimension(lam)
        layout.append((lam, start, start + d * d, d))
        start += d * d
    return tuple(layout)


class _Program:
    """Clausen's coset recursion, unrolled over two n!-long buffers.

    Position x = (j_n, ..., j_2) in mixed radix, j_n most significant, holds
    sigma = c^(n)_{j_n} ... c^(2)_{j_2}, where c^(k)_j sends k to j+1; the
    gather maps x to the Lehmer rank of that sigma. As j_k = #{i < k :
    sigma(i) < sigma(k)}, x is the rank of sigma's one-line form reversed.

    Level 1 is the gathered input; level k = 2..n fills buffer (k - 1) % 2
    with, per partition lam of k in canonical order, its transposed blocks of
    all n!/k! coset functions as one C-ordered (d, n!/k!, d) array: column,
    coset, row. levels[k - 2] holds one step per (lam, corner mu) of level k:
    the level below's mu array seen as (d_mu n!/k!, k d_mu), whose k cosets
    of S_{k-1} lie side by side; the slab and its transpose; lam's columns
    lo:hi seen as (d_mu n!/k!, d); the inverse's operand, which at the top
    level is the transposed view of the block that the scaled spectrum
    occupies there; and whether the step is the first into mu.

    At the top level, n!/n! = 1 and the arrays are the spectrum's blocks,
    transposed. blocks holds per block its slice of the spectrum, its top
    level slice, that slice transposed back as d x d, the same d x d slice
    of the spare buffer, which the forward fills last, and its unitary and
    plain inverse factors, sqrt(d/n!) and d/n!.
    """

    def __init__(self, n: int):
        fact = math.factorial(n)
        position = encode_batch(all_one_lines(n)[:, ::-1])
        self.gather = np.empty_like(position)
        self.gather[position] = np.arange(fact)
        self.gather.setflags(write=False)
        self.buffers = (np.empty(fact), np.empty(fact))
        self.lock = threading.Lock()
        self.levels = []
        starts = [0]  # of each partition's array at the level below
        for k in range(2, n + 1):
            batch, previous = fact // math.factorial(k), enumerate_partitions(k - 1)
            below, here = self.buffers[k % 2], self.buffers[(k - 1) % 2]
            steps, here_starts, start, written = [], [], 0, set()
            for lam in enumerate_partitions(k):
                d = irrep_dimension(lam)
                here_starts.append(start)
                for mu, lo, hi, slab, slab_t in coset_slabs(lam, previous):
                    m = hi - lo
                    operand = below[starts[mu]:starts[mu] + m * m * batch * k]
                    output = here[start + lo * batch * d:start + hi * batch * d]
                    operand = operand.reshape(m * batch, k * m)
                    output = output.reshape(m * batch, d)
                    inverse_operand = here[start:start + d * d].reshape(d, d).T[lo:hi] \
                        if k == n else output
                    steps.append((operand, slab, slab_t, output, inverse_operand,
                                  mu not in written))
                    written.add(mu)
                start += d * d * batch
            self.levels.append(tuple(steps))
            starts = here_starts
        top, self.spare = self.buffers[(n - 1) % 2], self.buffers[n % 2]
        self.blocks = tuple(
            (slice(start, stop), top[start:stop], top[start:stop].reshape(d, d).T,
             self.spare[start:stop].reshape(d, d), math.sqrt(d / fact), d / fact)
            for _, start, stop, d in _block_layout(n))


@lru_cache(maxsize=None)
def _program(n: int) -> _Program:
    return _Program(n)


def gft_forward(h, normalization: str = "unitary") -> FourierSpectrum:
    """Forward transform: block_lam = sum_sigma h(sigma) rho_lam(sigma).

    Gathers h into the coset order, then runs the program's products level
    by level, each corner's transposed slab applied to the level below. The
    spectrum is the top level's blocks transposed back, and scaled under the
    unitary normalization.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    values = np.ascontiguousarray(h, dtype=np.float64)
    n = function_degree(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite")
    program = _program(n)
    unitary = normalization == "unitary"
    with program.lock, np.errstate(over="ignore", invalid="ignore"):
        # the gather is in range; under the default mode, take copies via a temporary
        np.take(values, program.gather, out=program.buffers[0], mode="clip")
        for steps in program.levels:
            for operand, _, slab_t, output, _, _ in steps:
                np.dot(operand, slab_t, out=output)
        for _, _, top_t, spare, scale, _ in program.blocks:
            np.multiply(top_t, scale if unitary else 1.0, out=spare)
        out = program.spare.copy()
    if not np.isfinite(out).all():
        raise ValueError("the transform overflowed double range")
    return FourierSpectrum(n, normalization, out)


def gft_inverse(spectrum: FourierSpectrum) -> np.ndarray:
    """Inverse transform back to a rank-indexed array; exact round-trip.

    The forward program run level by level backwards with the slabs
    untransposed: for sigma = c_j pi, sum_ab rho(sigma)_ab G_ab splits over
    the corners mu into the mu blocks of rho(c_j)^T G paired with
    rho_mu(pi). The first corner into mu writes its array, and later ones
    add to it.
    """
    program = _program(spectrum.n)
    unitary = spectrum.normalization == "unitary"
    with program.lock:
        for span, top, _, _, unitary_scale, plain_scale in program.blocks:
            np.multiply(spectrum.values[span], unitary_scale if unitary else plain_scale,
                        out=top)
        for steps in reversed(program.levels):
            for operand, slab, _, _, inverse_operand, first in steps:
                if first:
                    np.dot(inverse_operand, slab, out=operand)
                else:
                    operand += np.dot(inverse_operand, slab)
        out = np.empty(len(spectrum.values))
        out[program.gather] = program.buffers[0]
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
