"""Young's orthogonal representation of S_n.

Basis vectors are standard tableaux in last-letter order, so restricted to
S_{n-1} each matrix is block-diagonal over the corners of lam. Adjacent
transpositions act by the two-line rule: diagonal 1/dist and off-diagonal
sqrt(1 - 1/dist^2) coupling each tableau with the one that swaps k and k+1,
dist being the axial distance from k to k+1. The matrices are orthogonal.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .partitions import Partition, irrep_dimension
from .perms import Permutation

Tableau = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def corner_blocks(lam: Partition) -> dict:
    """{row: (mu, lo, hi)} per corner of lam, bottom row first: mu is lam
    without the box ending that row (None at weight 1), and lo:hi spans the
    tableaux whose largest entry sits in that row, listed as mu's are."""
    parts, out, lo = lam.parts, {}, 0
    for i in range(len(parts) - 1, -1, -1):
        if i == len(parts) - 1 or parts[i] > parts[i + 1]:
            rest = tuple(p for p in parts[:i] + (parts[i] - 1,) + parts[i + 1:] if p)
            mu = Partition(rest) if rest else None
            out[i] = (mu, lo, lo + (irrep_dimension(mu) if mu else 1))
            lo = out[i][2]
    return out


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
    for row, (mu, _, _) in corner_blocks(lam).items():
        for tab in standard_tableaux(mu):
            rows = list(tab) + [()]
            rows[row] += (n,)
            out.append(tuple(r for r in rows if r))
    return tuple(out)


@lru_cache(maxsize=None)
def _generator_data(lam: Partition):
    """Per-generator sparse action: diag, offd, partner index arrays.

    Row t of the matrix for tau_k is diag[t] on the diagonal plus offd[t] in
    column partner[t]; partner[t] == t exactly when offd[t] == 0. On each
    corner's span tau_1..tau_{n-2} act as on mu; tau_{n-1} couples n in row
    r, n-1 in r2 with n in r2, n-1 in r; dist is their content difference.
    """
    n, d = lam.weight, irrep_dimension(lam)
    diag = np.zeros((n - 1, d))
    offd = np.zeros_like(diag)
    partner = np.tile(np.arange(d), (n - 1, 1))
    for row, (mu, lo, hi) in corner_blocks(lam).items() if n > 1 else ():
        sub_diag, sub_offd, sub_partner = _generator_data(mu)
        diag[:-1, lo:hi], offd[:-1, lo:hi] = sub_diag, sub_offd
        partner[:-1, lo:hi] = sub_partner + lo
        for row2, (_, lo2, hi2) in corner_blocks(mu).items():
            dist = (lam.parts[row] - 1 - row) - (mu.parts[row2] - 1 - row2)
            span = slice(lo + lo2, lo + hi2)
            diag[-1, span] = 1.0 / dist
            if abs(dist) > 1:
                offd[-1, span] = math.sqrt(1.0 - 1.0 / dist**2)
                mu2, lo_swap, _ = corner_blocks(lam)[row2]  # n in row2, then n-1 in row
                partner[-1, span] = lo_swap + corner_blocks(mu2)[row][1] + np.arange(hi2 - lo2)
    for arr in (diag, offd, partner):
        arr.setflags(write=False)
    return diag, offd, partner


def apply_generator(lam: Partition, g: int, mats: np.ndarray) -> np.ndarray:
    """rho(tau_{g+1}) @ mats for a (..., d, m) batch, one sparse row each."""
    diag, offd, partner = _generator_data(lam)
    return diag[g][:, None] * mats + offd[g][:, None] * mats[..., partner[g], :]


def irrep_of(lam: Partition, perm: Permutation) -> np.ndarray:
    """Representation matrix of perm, built from its adjacent factorization."""
    if perm.n != lam.weight:
        raise ValueError("permutation degree and partition weight differ")
    mat = np.eye(irrep_dimension(lam))
    line = list(perm.one_line)
    # bubble sort records tau_k factors; applying them left to right rebuilds perm
    for i in range(len(line)):
        for k in range(len(line) - 1, i, -1):
            if line[k - 1] > line[k]:
                line[k - 1], line[k] = line[k], line[k - 1]
                mat = apply_generator(lam, k - 1, mat)
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
    d = irrep_dimension(lam)
    stack = np.empty((math.factorial(n), d, d))
    stack[0] = np.eye(d)
    for i in range(n - 1, 0, -1):
        size = math.factorial(n - i)
        for l in range(1, n - i + 1):
            stack[l * size:(l + 1) * size] = apply_generator(
                lam, i + l - 2, stack[(l - 1) * size:l * size])
    stack.setflags(write=False)
    return stack


def coset_slabs(lam: Partition, previous: tuple[Partition, ...]):
    """(mu index in previous, first column, last column, slab, its transpose)
    per corner mu of lam, for the coset-recursion FFT.

    With c_j = tau_{j+1}...tau_{k-1} (k = weight of lam), the slab is
    [rho(c_0) ... rho(c_{k-1})] restricted to the columns of mu, whose block
    of rho restricted to S_{k-1} sits there in last-letter order.
    """
    reps = [np.eye(irrep_dimension(lam))]  # rho(c_{k-1}) is the identity
    for g in range(lam.weight - 2, -1, -1):
        reps.insert(0, apply_generator(lam, g, reps[0]))  # rho(tau_{g+1}) rho(c_{g+1})
    out = []
    for mu, lo, hi in corner_blocks(lam).values():
        slab = np.hstack([rep[:, lo:hi] for rep in reps])
        slab_t = np.ascontiguousarray(slab.T)
        slab.setflags(write=False)
        slab_t.setflags(write=False)
        out.append((previous.index(mu), lo, hi, slab, slab_t))
    return tuple(out)
