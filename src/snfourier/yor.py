"""Young's orthogonal representation of S_n.

Basis vectors are standard tableaux in last-letter order. Adjacent
transpositions act by the classic two-line rule: diagonal entry 1/dist and
off-diagonal sqrt(1 - 1/dist^2) coupling each tableau with the one obtained
by swapping k and k+1, where dist is the axial distance from k to k+1. All
matrices are real orthogonal, so inverses are transposes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .partitions import Partition
from .perms import Permutation

Tableau = tuple[tuple[int, ...], ...]


def corners(lam: Partition):
    """(row, mu) per corner of lam (weight >= 2), mu being lam without that
    box; bottom row first, the order in which last-letter bases list their
    blocks."""
    parts = lam.parts
    for i in range(len(parts) - 1, -1, -1):
        if i == len(parts) - 1 or parts[i] > parts[i + 1]:
            rest = parts[:i] + (parts[i] - 1,) + parts[i + 1 :]
            yield i, Partition(tuple(p for p in rest if p))


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """All standard Young tableaux of shape lam, in last-letter order.

    Tableaux whose largest entry n sits in a lower corner come first; within
    one corner, the order is that of the tableaux of the smaller shape.
    """
    n = lam.weight
    if n == 1:
        return (((1,),),)
    out = []
    for row, mu in corners(lam):
        for tab in standard_tableaux(mu):
            rows = list(tab) + [()]
            rows[row] += (n,)
            out.append(tuple(r for r in rows if r))
    return tuple(out)


@lru_cache(maxsize=None)
def _generator_data(lam: Partition):
    """Per-generator sparse action: diag, offd, partner index arrays.

    Row t of the matrix for tau_k is diag[t] on the diagonal plus offd[t] in
    column partner[t]; partner[t] == t exactly when offd[t] == 0.
    """
    tabs = standard_tableaux(lam)
    index = {tab: t for t, tab in enumerate(tabs)}
    d = len(tabs)
    n = lam.weight
    diag = np.zeros((n - 1, d) if n > 1 else (0, d))
    offd = np.zeros_like(diag)
    partner = np.tile(np.arange(d), (max(n - 1, 0), 1))
    for t, tab in enumerate(tabs):
        pos = {v: (i, j) for i, row in enumerate(tab) for j, v in enumerate(row)}
        for k in range(1, n):
            (r1, c1), (r2, c2) = pos[k], pos[k + 1]
            dist = (c2 - c1) - (r2 - r1)
            diag[k - 1, t] = 1.0 / dist
            if abs(dist) > 1:
                offd[k - 1, t] = math.sqrt(1.0 - 1.0 / dist**2)
                swapped = tuple(
                    tuple(k + 1 if v == k else k if v == k + 1 else v for v in row)
                    for row in tab
                )
                partner[k - 1, t] = index[swapped]
    diag.setflags(write=False)
    offd.setflags(write=False)
    partner.setflags(write=False)
    return diag, offd, partner


def irrep_of(lam: Partition, perm: Permutation) -> np.ndarray:
    """Representation matrix of perm, built from its adjacent factorization."""
    if perm.n != lam.weight:
        raise ValueError("permutation degree and partition weight differ")
    diag, offd, partner = _generator_data(lam)
    mat = np.eye(diag.shape[1])
    line = list(perm.one_line)
    # bubble sort records tau_k factors; applying them left to right rebuilds perm
    for i in range(len(line)):
        for k in range(len(line) - 1, i, -1):
            if line[k - 1] > line[k]:
                line[k - 1], line[k] = line[k], line[k - 1]
                g = k - 1
                mat = diag[g][:, None] * mat + offd[g][:, None] * mat[partner[g]]
    return mat


@lru_cache(maxsize=None)
def irrep_stack(n: int, lam: Partition) -> np.ndarray:
    """All n! representation matrices, indexed by permutation rank.

    Shape (n!, d, d) with stack[r] the matrix of the rank-r permutation.
    Cached read-only. The permutation with Lehmer digits l_1..l_{n-1} is
    F_1(l_1)...F_{n-1}(l_{n-1}) with F_i(l) = tau_{i+l-1}...tau_i, so the
    stack grows one digit at a time, last digit first: the ranks whose digits
    before slot i are zero hold n-i+1 blocks of (n-i)! matrices, and block l
    is rho(tau_{i+l-1}) applied on the left of block l-1. Every matrix is a
    product of at most C(n,2) sparse generators.
    """
    if lam.weight != n:
        raise ValueError("partition weight must equal n")
    diag, offd, partner = _generator_data(lam)
    d = diag.shape[1]
    stack = np.empty((math.factorial(n), d, d))
    stack[0] = np.eye(d)
    for i in range(n - 1, 0, -1):
        size = math.factorial(n - i)
        for l in range(1, n - i + 1):
            g = i + l - 2  # generator row of tau_{i+l-1}
            prev = stack[(l - 1) * size : l * size]
            block = stack[l * size : (l + 1) * size]
            np.multiply(diag[g][:, None], prev, out=block)
            block += offd[g][:, None] * prev[:, partner[g]]
    stack.setflags(write=False)
    return stack
