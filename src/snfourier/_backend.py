"""What only perfbench reads or patches by name: the backend stamps of its
results and cached tables. No product module imports this one; perms holds
the permutation table and the batch ranking kernel.
"""

import importlib.util
import math
from functools import lru_cache

import numpy as np

from .perms import all_one_lines

# perfbench stamps its results with both names, so they stay.
ACTIVE_BACKEND = "numpy"
HAS_NUMBA = importlib.util.find_spec("numba") is not None


# no library code calls this; perfbench/spans.py patches it by name
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


# no library code calls this; perfbench/spans.py patches it by name
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


# no library code calls this; perfbench/spans.py patches it by name
@lru_cache(maxsize=None)
def all_perms0(n):
    """perms.all_one_lines(n) with 0-based values, laid out the same way."""
    out = all_one_lines(n) - 1
    out.flags.writeable = False
    return out


# no library code calls this; perfbench/spans.py patches it by name
@lru_cache(maxsize=None)
def all_inverses0(n):
    """0-based one-line forms of every rank's inverse permutation."""
    out = np.argsort(all_perms0(n), axis=1, kind="stable")
    out = np.ascontiguousarray(out)
    out.flags.writeable = False
    return out

