"""Hot kernels in numpy: batch ranking of one-line forms, plus the cached
rank-order tables that every permutation index in the library comes from.
"""

import importlib.util
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


# no library code calls this; perfbench/spans.py patches it by name
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
    """One-line forms (0-based values) of all ranks, rank order = lex order.

    Indexed [rank, slot]: the table is stored slot-major and returned
    transposed, so each slot's column is one contiguous run of n! bytes.
    The ranks of S_k with first value j are j followed by the ranks of
    S_{k-1} with the values >= j moved up by one, which keeps them in lex
    order.
    """
    out = np.zeros((0, 1), dtype=np.uint8)
    for k in range(1, n + 1):
        prev, out = out, np.empty((k, k * out.shape[1]), dtype=np.uint8)
        for j in range(k):
            block = out[:, j * prev.shape[1]:(j + 1) * prev.shape[1]]
            block[0] = j
            block[1:] = prev + (prev >= j)
    out.flags.writeable = False
    return out.T


# no library code calls this; perfbench/spans.py patches it by name
@lru_cache(maxsize=None)
def all_inverses0(n):
    """0-based one-line forms of every rank's inverse permutation."""
    out = np.argsort(all_perms0(n), axis=1, kind="stable")
    out = np.ascontiguousarray(out)
    out.flags.writeable = False
    return out


def encode_batch(one_lines):
    """Ranks of a batch of one-line rows (only their order matters).

    Rows are read as uint8, so values must be below 256; each slot's count
    of smaller later values, at most n - 1, is summed in uint8."""
    cols = np.asarray(one_lines, dtype=np.uint8).T  # slot-major: row i is slot i
    n, m = cols.shape
    weights = factorial_weights(n)
    ranks = np.zeros(m, dtype=np.int64)
    for i in range(n - 1):
        # an int64 array, not a scalar, keeps the product int64 on numpy 1.x
        ranks += weights[i:i + 1] * np.sum(cols[i + 1:] < cols[i], axis=0, dtype=np.uint8)
    return ranks
