"""Hot kernels in numpy: batch Lehmer encoding, the adjacent-transposition
digit replay, streaming construction of all irrep matrices in rank order, and
direct group convolution, plus the cached rank-order tables they share.
"""

import importlib.util
import itertools
import math
from functools import lru_cache

import numpy as np

# perfbench stamps its results with both names, so they stay.
ACTIVE_BACKEND = "numpy"
HAS_NUMBA = importlib.util.find_spec("numba") is not None


@lru_cache(maxsize=None)
def factorial_weights(n):
    """Big-endian factorial-base weights: slot i carries (n-1-i)!."""
    w = np.array([math.factorial(n - 1 - i) for i in range(n)], dtype=np.int64)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def swap_sequence(n):
    """Plain-changes order of S_n: 1-based swap slots visiting all n! perms.

    Each entry k means "swap one-line slots k and k+1" (right-multiply by
    tau_k), starting from the identity.
    """
    perm = list(range(n))
    dirs = [-1] * n
    seq = []
    while True:
        mobile = -1
        mpos = -1
        for i, v in enumerate(perm):
            j = i + dirs[v]
            if 0 <= j < n and perm[j] < v and v > mobile:
                mobile, mpos = v, i
        if mobile < 0:
            break
        j = mpos + dirs[mobile]
        perm[mpos], perm[j] = perm[j], perm[mpos]
        seq.append(min(mpos, j) + 1)
        for v in range(mobile + 1, n):
            dirs[v] = -dirs[v]
    out = np.array(seq, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def all_digits(n):
    """Lehmer digits of every rank 0..n!-1, row r = digits of rank r."""
    ranks = np.arange(math.factorial(n), dtype=np.int64)
    out = np.empty((ranks.size, n), dtype=np.int64)
    w = factorial_weights(n)
    for i in range(n):
        out[:, i] = (ranks // w[i]) % (n - i)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def all_perms0(n):
    """One-line forms (0-based values) of all ranks, rank order = lex order."""
    out = np.array(
        list(itertools.permutations(range(n))), dtype=np.int64
    ).reshape(math.factorial(n), n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def all_inverses0(n):
    """0-based one-line forms of every rank's inverse permutation."""
    out = np.argsort(all_perms0(n), axis=1, kind="stable")
    out = np.ascontiguousarray(out)
    out.flags.writeable = False
    return out


def encode_batch(one_lines):
    """Lehmer digits for a batch of one-line rows (only their order matters)."""
    arr = np.ascontiguousarray(one_lines, dtype=np.int64)
    m, n = arr.shape
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(n - 1):
        out[:, i] = np.sum(arr[:, i + 1:] < arr[:, i : i + 1], axis=1)
    return out


def apply_swaps(digits, seq):
    """Replay a 1-based adjacent-swap sequence on each digit row."""
    out = np.array(digits, dtype=np.int64)
    for k in np.asarray(seq, dtype=np.int64):
        a = out[:, k - 1].copy()
        b = out[:, k]
        gt = a > b
        out[:, k - 1] = np.where(gt, b, b + 1)
        out[:, k] = np.where(gt, a - 1, a)
    return out


def irrep_stack_from_generators(n, diag, offd, partner):
    """All irrep matrices of one irrep, shape (n!, d, d), indexed by rank.

    diag/offd/partner describe the n-1 sparse generator matrices: column t of
    rho(tau_k) holds diag[k-1, t] at row t and offd[k-1, t] at row
    partner[k-1, t] (zero when partner == t). The matrices are built by
    walking the plain-changes order, one sparse generator product per step.
    """
    diag = np.asarray(diag, dtype=np.float64)
    offd = np.asarray(offd, dtype=np.float64)
    partner = np.asarray(partner, dtype=np.int64)
    weights = factorial_weights(n).tolist()
    d = diag.shape[1]
    out = np.empty((math.factorial(n), d, d))
    mat = np.eye(d)
    dig = [0] * n
    rank = 0
    out[0] = mat
    for k in swap_sequence(n).tolist():
        g = k - 1
        mat = mat * diag[g][None, :] + mat[:, partner[g]] * offd[g][None, :]
        a, b = dig[g], dig[k]
        na, nb = (b, a - 1) if a > b else (b + 1, a)
        rank += (na - a) * weights[g] + (nb - b) * weights[k]
        dig[g], dig[k] = na, nb
        out[rank] = mat
    return out


def convolve_direct(q, h, n):
    """Direct-space group convolution (q * h)(sigma) = sum q(sigma tau^-1) h(tau)."""
    q = np.ascontiguousarray(q, dtype=np.float64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    perms0 = all_perms0(n)
    inv0 = all_inverses0(n)
    weights = factorial_weights(n)
    out = np.empty(perms0.shape[0])
    for s in range(perms0.shape[0]):
        ranks = encode_batch(perms0[s][inv0]) @ weights
        out[s] = float(np.dot(q[ranks], h))
    return out
