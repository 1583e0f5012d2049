"""Permutations of {1..n}: one-line and Lehmer forms, ranking, composition.

Conventions used throughout the package:

* positions, items and values are 1-based in every public interface;
* composition is (a . b)(i) = a(b(i)), so b acts first;
* tau_k is the adjacent transposition of k and k+1, and right-composing
  sigma . tau_k swaps slots k and k+1 of the one-line form;
* ranks are big-endian factorial-base values of Lehmer digits, which orders
  S_n lexicographically by one-line form; encode_batch ranks rows in bulk,
  and all_one_lines is the table of S_n in rank order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n} in one-line form: slot i holds the image of i."""

    one_line: tuple[int, ...]

    def __post_init__(self):
        given = self.one_line
        try:
            given = tuple(given)
            ol = tuple(int(v) for v in given)
        except (TypeError, ValueError, OverflowError):  # None, inf, "x"
            ol = None
        if ol is None or ol != given:
            raise ValueError(f"one-line values must be integers, got {given}")
        object.__setattr__(self, "one_line", ol)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ol)}: {ol}")

    @property
    def n(self) -> int:
        return len(self.one_line)


@dataclass(frozen=True)
class LehmerCode:
    """Digit string l_1..l_n with l_i in {0..n-i}; the last digit is 0."""

    digits: tuple[int, ...]

    def __post_init__(self):
        digs = tuple(int(v) for v in self.digits)
        object.__setattr__(self, "digits", digs)
        n = len(digs)
        for i, d in enumerate(digs):
            if not 0 <= d <= n - i - 1:
                raise ValueError(f"digit {d} out of range at slot {i + 1} for n={n}")

    @property
    def n(self) -> int:
        return len(self.digits)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """(a . b)(i) = a(b(i)); b acts first."""
    if a.n != b.n:
        raise ValueError("degree mismatch")
    return Permutation(tuple(a.one_line[v - 1] for v in b.one_line))


def adjacent_transposition(n: int, k: int) -> Permutation:
    """tau_k, swapping k and k+1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    ol = list(range(1, n + 1))
    ol[k - 1], ol[k] = ol[k], ol[k - 1]
    return Permutation(tuple(ol))


def lehmer_encode(p: Permutation) -> LehmerCode:
    """Count, per slot, the later values that are smaller."""
    ol = p.one_line
    n = p.n
    return LehmerCode(
        tuple(
            sum(1 for j in range(i + 1, n) if ol[j] < ol[i]) for i in range(n)
        )
    )


def lehmer_decode(code: LehmerCode) -> Permutation:
    """Pick the d-th smallest value still available, per digit."""
    avail = list(range(1, code.n + 1))
    return Permutation(tuple(avail.pop(d) for d in code.digits))


def lehmer_rank(code: LehmerCode) -> int:
    """Big-endian factorial-base value of the digits."""
    n = code.n
    return sum(d * math.factorial(n - 1 - i) for i, d in enumerate(code.digits))


def lehmer_unrank(rank: int, n: int) -> LehmerCode:
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    digits = []
    for i in range(n):
        w = math.factorial(n - 1 - i)
        digits.append(rank // w)
        rank %= w
    return LehmerCode(tuple(digits))


def adjacent_update(code: LehmerCode, k: int) -> LehmerCode:
    """Digits of sigma . tau_k from the digits of sigma.

    Right-composing with tau_k touches only slots k and k+1: with
    a = l_k, b = l_{k+1}, the new pair is (b, a-1) when a > b and
    (b+1, a) otherwise.
    """
    if not 1 <= k <= code.n - 1:
        raise ValueError(f"k must be in 1..{code.n - 1}, got {k}")
    a, b = code.digits[k - 1], code.digits[k]
    pair = (b, a - 1) if a > b else (b + 1, a)
    return LehmerCode(code.digits[: k - 1] + pair + code.digits[k + 1 :])


@lru_cache(maxsize=None)
def all_one_lines(n: int) -> np.ndarray:
    """(n!, n) uint8 array of 1-based one-line forms, row r = permutation of rank r.

    Read-only and stored slot-major: the array is the transpose of an (n, n!)
    one, so each slot's column is one contiguous run of n! bytes. The ranks
    of S_k with first value j are j followed by the ranks of S_{k-1} with the
    values >= j moved up by one, which keeps them in lex order.
    """
    out = np.zeros((0, 1), dtype=np.uint8)
    for k in range(1, n + 1):
        prev, out = out, np.empty((k, k * out.shape[1]), dtype=np.uint8)
        for j in range(1, k + 1):
            block = out[:, (j - 1) * prev.shape[1]:j * prev.shape[1]]
            block[0] = j
            block[1:] = prev + (prev >= j)
    out.flags.writeable = False
    return out.T


def encode_batch(one_lines) -> np.ndarray:
    """Ranks of a batch of one-line rows (only their order matters).

    Rows are read as uint8, so values must be below 256. Each slot's count of
    smaller later values, at most n - 1, is summed in uint8 and folded into
    the ranks by Horner's rule in the factorial base."""
    cols = np.asarray(one_lines, dtype=np.uint8).T  # slot-major: row i is slot i
    n, m = cols.shape
    ranks = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        ranks *= n - i
        ranks += np.sum(cols[i + 1:] < cols[i], axis=0, dtype=np.uint8)
    return ranks


def ranks_after_sequence(n: int, seq: tuple[int, ...]) -> np.ndarray:
    """Rank of sigma_r composed with the swap sequence, for every rank r."""
    slots = list(range(n))
    for k in seq:
        slots[k - 1], slots[k] = slots[k], slots[k - 1]
    # slot m of sigma . pi holds sigma(pi(m))
    return encode_batch(all_one_lines(n)[:, slots])
