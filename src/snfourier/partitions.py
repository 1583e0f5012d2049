"""Integer partitions of n, irreducible dimensions, and class data for S_n.

Partitions are weakly decreasing tuples of positive parts. Enumeration order
is reverse lexicographic, so (n,) comes first and (1, ..., 1) last; every
index-based layout elsewhere in the package assumes this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import check_degree


@dataclass(frozen=True)
class Partition:
    """A partition of some positive integer, stored as its parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("partition needs at least one part")
        prev = None
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
            if prev is not None and p > prev:
                raise ValueError("parts must be weakly decreasing")
            prev = p

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        cols = [sum(1 for p in self.parts if p > c) for c in range(self.parts[0])]
        return Partition(tuple(cols))


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(parts) for parts in rec(n, n))


@lru_cache(maxsize=None)
def irrep_dimension(lam: Partition) -> int:
    """Dimension of the irreducible indexed by lam, by the hook length formula."""
    conj = lam.conjugate().parts
    hooks = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    dim, rem = divmod(math.factorial(lam.weight), hooks)
    if rem:
        raise ArithmeticError(f"hook product {hooks} of {lam.parts} does not divide "
                              f"{lam.weight}!")
    return dim


@lru_cache(maxsize=None)
def transposition_character_ratio(lam: Partition) -> Fraction:
    """Normalized character chi(tau)/dim at any transposition tau, exact.

    Equals (sum_i C(lam_i, 2) - sum_j C(lam'_j, 2)) / C(n, 2); ranges over
    [-1, 1] and flips sign under conjugation.
    """
    n = lam.weight
    if n < 2:
        return Fraction(1)
    rows = sum(math.comb(p, 2) for p in lam.parts)
    cols = sum(math.comb(p, 2) for p in lam.conjugate().parts)
    return Fraction(rows - cols, math.comb(n, 2))


def diffusion_eigenvalue(lam: Partition, p) -> Fraction:
    """Fourier eigenvalue p + (1-p) * ratio of the lazy transposition walk.

    Exact when p is a Fraction or int; floats are converted exactly
    (binary floats are dyadic rationals), so callers keep full control of
    rounding by passing a Fraction.
    """
    p = Fraction(p)
    return p + (1 - p) * transposition_character_ratio(lam)


def _class_size(n: int, cycle_type: tuple[int, ...]) -> int:
    mult: dict[int, int] = {}
    for k in cycle_type:
        mult[k] = mult.get(k, 0) + 1
    denom = 1
    for k, m in mult.items():
        denom *= k**m * math.factorial(m)
    size, rem = divmod(math.factorial(n), denom)
    if rem:
        raise ArithmeticError(f"centralizer order {denom} of cycle type {cycle_type} "
                              f"does not divide {n}!")
    return size


class ConjugacyClass(NamedTuple):
    cycle_type: Partition
    size: int


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple[ConjugacyClass, ...]:
    """One record per class, cycle types in reverse lexicographic order."""
    check_degree(n)
    return tuple(ConjugacyClass(lam, _class_size(n, lam.parts))
                 for lam in enumerate_partitions(n))


@lru_cache(maxsize=None)
def character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible character value chi_lam at the given cycle type, exact.

    The Murnaghan-Nakayama rule on beta-sets (B. Sagan, The Symmetric Group,
    2nd ed., 2001, sec. 4.10): with beads at lam_i + (l - i) for l parts,
    removing a rim hook of length k, the largest cycle, moves one bead k
    places down onto a free place, with sign (-1)^(beads passed); the
    character is the signed sum over those moves of the rest's character.
    """
    if cycle_type.weight != lam.weight:
        raise ValueError("cycle type and partition weigh different n")
    k, rest = cycle_type.parts[0], cycle_type.parts[1:]
    length = len(lam.parts)
    beads = [part + length - 1 - i for i, part in enumerate(lam.parts)]
    total = 0
    for bead in beads:
        if bead < k or bead - k in beads:
            continue
        sign = (-1) ** sum(bead - k < other < bead for other in beads)
        moved = sorted([b for b in beads if b != bead] + [bead - k], reverse=True)
        parts = tuple(p for p in (b - (length - 1 - i) for i, b in enumerate(moved)) if p)
        # with no cycle left, the hook was all of lam and the rest is empty
        total += sign * (character(Partition(parts), Partition(rest)) if rest else 1)
    return total


def kronecker_multiplicity(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of nu inside the tensor product of lam and mu.

    Exact class sum (1/n!) sum_C |C| chi_lam chi_mu chi_nu in integers; a
    sum that n! does not divide, or a negative one, raises ArithmeticError.
    """
    n = lam.weight
    if mu.weight != n or nu.weight != n:
        raise ValueError("all three partitions must share the same weight")
    total = sum(cls.size * character(lam, cls.cycle_type) * character(mu, cls.cycle_type)
                * character(nu, cls.cycle_type) for cls in conjugacy_classes(n))
    mult, rem = divmod(total, math.factorial(n))
    if rem or mult < 0:
        raise ArithmeticError(f"class sum {total}/{math.factorial(n)} for {lam.parts}, "
                              f"{mu.parts}, {nu.parts} is not a nonnegative integer")
    return mult
