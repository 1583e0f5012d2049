"""Brute-force oracles used across the test suite.

Everything in here is deliberately naive: direct definitions, explicit loops,
no shared code with the library's fast paths. Tests compare library output
against these. The dense Fourier routes read the library's irrep stacks, the
O((n!)^2) construction that the coset-recursion transform replaces.
"""

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from snfourier.errors import check_degree
from snfourier.partitions import enumerate_partitions, irrep_dimension
from snfourier.transform import FourierSpectrum, function_degree
from snfourier.yor import irrep_stack


def all_perms_lex(n):
    """All one-line forms of S_n (1-based values) in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def inversion_digits(one_line):
    """Lehmer digits by direct inversion counting per slot."""
    n = len(one_line)
    return tuple(
        sum(1 for j in range(i + 1, n) if one_line[j] < one_line[i])
        for i in range(n)
    )


def select_decode(digits):
    """Decode by picking the d-th smallest value still available (0-indexed)."""
    avail = list(range(1, len(digits) + 1))
    return tuple(avail.pop(d) for d in digits)


def factorial_rank(digits):
    """Big-endian factorial-base value of a digit string."""
    n = len(digits)
    return sum(d * math.factorial(n - i - 1) for i, d in enumerate(digits))


def compose_oracle(a, b):
    """(a . b)(i) = a(b(i)); tuples of 1-based values, b acts first."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def inverse_oracle(a):
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def cycle_type(one_line):
    """Cycle lengths of a permutation, sorted descending."""
    n = len(one_line)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        count, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = one_line[j] - 1
            count += 1
        lengths.append(count)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def syt_count(parts):
    """Number of standard Young tableaux, by the remove-a-corner recursion."""
    parts = tuple(p for p in parts if p > 0)
    if sum(parts) <= 1:
        return 1
    total = 0
    for i, row in enumerate(parts):
        below = parts[i + 1] if i + 1 < len(parts) else 0
        if row > below:
            shorter = parts[:i] + (row - 1,) + parts[i + 1:]
            total += syt_count(tuple(p for p in shorter if p > 0))
    return total


def naive_gft_block(h, matrices):
    """Plain-normalization Fourier block by an explicit (sigma, i, j) loop.

    ``matrices`` holds rho(sigma) for every sigma, aligned with the rank
    indexing of ``h``.
    """
    d = matrices[0].shape[0]
    out = np.zeros((d, d))
    for r in range(len(matrices)):
        for i in range(d):
            for j in range(d):
                out[i, j] += h[r] * matrices[r][i, j]
    return out


def dense_gft_forward(h, normalization="unitary"):
    """Forward transform as one tensordot per partition over its irrep stack."""
    values = np.asarray(h, dtype=np.float64)
    n = function_degree(values)
    fact = math.factorial(n)
    blocks = {}
    for lam in enumerate_partitions(n):
        block = np.tensordot(values, irrep_stack(n, lam), axes=(0, 0))
        if normalization == "unitary":
            block *= math.sqrt(irrep_dimension(lam) / fact)
        blocks[lam] = block
    return FourierSpectrum(n, normalization, blocks)


def dense_gft_inverse(spectrum):
    """Inverse transform: sum over partitions of scaled tr(rho(sigma)^T block)."""
    n = spectrum.n
    fact = math.factorial(n)
    out = np.zeros(fact)
    for lam, block in spectrum.blocks.items():
        d = irrep_dimension(lam)
        traces = irrep_stack(n, lam).reshape(fact, d * d) @ block.ravel()
        scale = d / fact if spectrum.normalization == "plain" else math.sqrt(d / fact)
        out += scale * traces
    return out


def qft_matrix(n):
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
        rows.append(math.sqrt(d / fact) * irrep_stack(n, lam).reshape(fact, d * d).T)
    return np.vstack(rows)


def posterior_csv_rows(posterior):
    """posterior_to_csv's text, built one f-string per row."""
    values = np.asarray(posterior, dtype=np.float64).tolist()
    lines = ["rank,one_line,probability"]
    for rank, (row, value) in enumerate(zip(all_perms_lex(function_degree(values)), values)):
        lines.append(f"{rank},{' '.join(map(str, row))},{value:.17g}")
    return "\n".join(lines) + "\n"


def samples_csv_rows(draws):
    """samples_to_csv's text, built one f-string per draw."""
    lines = ["draw,one_line"]
    for index, row in enumerate(np.asarray(draws).tolist()):
        lines.append(f"{index}," + " ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def spectrum_json_rows(spectrum):
    """spectrum_to_json's text, built one f-string per entry."""
    def matrix(block):
        rows = ("[" + ", ".join(f"{x:.17g}" for x in row) + "]" for row in block.tolist())
        return "[" + ", ".join(rows) + "]"

    blocks = ", ".join(
        f'{json.dumps("[" + ",".join(map(str, lam.parts)) + "]")}: {matrix(spectrum.blocks[lam])}'
        for lam in enumerate_partitions(spectrum.n)
    )
    return f'{{"normalization": {json.dumps(spectrum.normalization)}, "blocks": {{{blocks}}}}}\n'


def markov_matrix_oracle(n, q_values):
    """Transition matrix Q[i, j] = q(g_i g_j^{-1}), ranks lexicographic."""
    perms = all_perms_lex(n)
    m = len(perms)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            prod = compose_oracle(perms[i], inverse_oracle(perms[j]))
            out[i, j] = q_values[factorial_rank(inversion_digits(prod))]
    return out


def convolve_oracle(q, h, n):
    """(q * h)(sigma) = sum_tau q(sigma tau^{-1}) h(tau), all by brute force."""
    perms = all_perms_lex(n)
    out = np.zeros(len(perms))
    for s, sigma in enumerate(perms):
        acc = 0.0
        for t, tau in enumerate(perms):
            prod = compose_oracle(sigma, inverse_oracle(tau))
            acc += q[factorial_rank(inversion_digits(prod))] * h[t]
        out[s] = acc
    return out


def coset_order_gather(n):
    """Lehmer rank of sigma = c^(n)_{j_n} ... c^(2)_{j_2} at every position
    x = (j_n, ..., j_2) of the FFT's coset order, j_n most significant.

    Builds the 0-based one-line forms level by level: the coset of c^(k)_j
    moves the values j..k-2 of every earlier row up by one and puts j in
    slot k-1, and the k cosets of S_{k-1} lie side by side. Ranks the rows
    by counting inversions per row.
    """
    lines = np.zeros((1, 1), dtype=np.int64)
    for k in range(2, n + 1):
        lines = np.concatenate([
            np.column_stack((lines + (lines >= j), np.full(len(lines), j)))
            for j in range(k)
        ])
    ranks = np.zeros(len(lines), dtype=np.int64)
    for i in range(n - 1):
        ranks += math.factorial(n - 1 - i) * np.sum(lines[:, i + 1:] < lines[:, i:i + 1], axis=1)
    return ranks


def random_probability(rng, size, floor=0.25):
    """Strictly positive random distribution summing to 1."""
    h = rng.random(size) + floor
    return h / h.sum()


def random_unit(rng, size):
    v = rng.standard_normal(size)
    return v / np.linalg.norm(v)


def tv_distance(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def partition_count(n):
    """Exact number of partitions of n via the classic dp over largest part."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


# character table of S_3; classes keyed by cycle type
S3_CHARACTERS = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}
S3_CLASS_SIZES = {(1, 1, 1): 1, (2, 1): 3, (3,): 2}


def choice_ranks(amplitudes, count, seed):
    """Ranks Generator.choice draws over all n! ranks with Pr ~ amplitude^2."""
    probs = np.asarray(amplitudes, dtype=np.float64) ** 2
    probs /= probs.sum()
    return np.random.default_rng(seed).choice(len(probs), size=count, p=probs)
