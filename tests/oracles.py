"""Brute-force oracles used across the test suite.

Everything in here is deliberately naive: direct definitions, explicit loops,
no shared code with the library's fast paths. Tests compare library output
against these. The dense Fourier routes read the library's irrep stacks, the
O((n!)^2) construction that the coset-recursion transform replaces, and
yor_generator reads the library's generator data, so its tests pin that data;
generator_data_from_tableaux builds that data the naive way. The recursive
transforms run the library's coset slabs level by level with fresh arrays,
as the library did before it unrolled the recursion into a program, from
the coset order that coset_order_gather builds the naive way; they pin the
program's bits and its gather. The diffusion oracles are the library's
former routes: eigenvalues by integer ratios, and the kernel ranked one
transposition at a time through the scalar Lehmer chain.
"""

import itertools
import json
import math
from functools import lru_cache

import numpy as np

from snfourier.diffusion import float_power
from snfourier.errors import check_degree
from snfourier.partitions import enumerate_partitions, irrep_dimension, \
    transposition_character_ratio
from snfourier.perms import Permutation, lehmer_encode, lehmer_rank
from snfourier.transform import NORMALIZATIONS, FourierSpectrum, function_degree
from snfourier.yor import _generator_data, coset_slabs, irrep_stack, standard_tableaux


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
    """Inverse of a one-line form, as a tuple of 1-based values."""
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def reorder_sequence(n: int, indices: tuple[int, ...], mode: str) -> tuple[int, ...]:
    """Adjacent-swap plan moving the given slots to the front or the back.

    Right-composing sigma with the tau_k of the returned sequence, in order,
    yields sigma . pi, whose leading (mode="to_front") or trailing
    (mode="to_back") slots read the chosen indices in ascending order; slots
    already in place cost nothing, and its length is at most k*n.
    """
    idx = sorted(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError("indices must be distinct")
    if idx and not (1 <= idx[0] and idx[-1] <= n):
        raise ValueError(f"indices must lie in 1..{n}")
    k = len(idx)
    seq: list[int] = []
    if mode == "to_front":
        for slot, i in enumerate(idx, start=1):
            seq.extend(range(i - 1, slot - 1, -1))
    elif mode == "to_back":
        for slot in range(k, 0, -1):
            seq.extend(range(idx[slot - 1], n - k + slot))
    else:
        raise ValueError(f"mode must be to_front|to_back, got {mode!r}")
    return tuple(seq)


def replay_swaps(n, seq):
    """The Permutation pi that a swap sequence applies: the identity's one-line
    form with slots k and k+1 swapped for each k of seq, in order."""
    line = list(range(1, n + 1))
    for k in seq:
        line[k - 1], line[k] = line[k], line[k - 1]
    return Permutation(tuple(line))


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


def consistency_predicate(obs, sigma):
    """True when sigma satisfies every constraint of the observation."""
    obs.check_degree(sigma.n)
    line = sigma.one_line
    if obs.kind == "assignment":
        return all(line[i - 1] == j for i, j in zip(obs.indices, obs.values))
    positions = [line[i - 1] for i in obs.items]
    return all(a < b for a, b in zip(positions, positions[1:]))


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


def generator_data_from_tableaux(lam):
    """_generator_data's (diag, offd, partner) by one pass over the tableaux.

    Per tableau and k: the axial distance from the positions of k and k+1,
    and the swapped tableau looked up by value.
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
    return diag, offd, partner


def yor_generator(lam, k):
    """Matrix of the adjacent transposition tau_k in the lam irreducible."""
    n = lam.weight
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in 1..{n - 1}, got {k}")
    diag, offd, partner = _generator_data(lam)
    d = diag.shape[1]
    mat = np.zeros((d, d))
    rows = np.arange(d)
    mat[rows, rows] = diag[k - 1]
    mat[rows, partner[k - 1]] += offd[k - 1]
    return mat


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


def spectrum_from_blocks(n, normalization, blocks):
    """A FourierSpectrum from a {Partition: d x d array} dict, by concatenating
    the blocks row-major in canonical partition order."""
    return FourierSpectrum(n, normalization, np.concatenate(
        [np.asarray(blocks[lam], dtype=np.float64).ravel() for lam in enumerate_partitions(n)]))


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
    return spectrum_from_blocks(n, normalization, blocks)


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


def recursion_levels(n):
    """(k, n!/k!, ((d_lam, coset slabs of lam) per partition lam of k))
    for each level k = 2..n of the coset recursion."""
    return [(k, math.factorial(n) // math.factorial(k), [
        (irrep_dimension(lam), coset_slabs(lam, enumerate_partitions(k - 1)))
        for lam in enumerate_partitions(k)]) for k in range(2, n + 1)]


def recursive_gft_forward(h, normalization="unitary"):
    """Forward transform by the coset recursion, one fresh (d, n!/k!, d)
    array per partition of each level k: column, coset, row. Each corner mu
    of lam is one matrix product of the level below, whose k cosets of
    S_{k-1} lie side by side, with the transposed slab."""
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    values = np.ascontiguousarray(h, dtype=np.float64)
    n = function_degree(values)
    if not np.all(np.isfinite(values)):
        raise ValueError("function values must be finite")
    fact = math.factorial(n)
    prev = [values[coset_order_gather(n)].reshape(1, fact, 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, batch, level in recursion_levels(n):
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


def recursive_gft_inverse(spectrum):
    """Inverse transform: the recursion run backwards with the slabs
    untransposed, each corner's product added into its mu array below."""
    n = spectrum.n
    fact = math.factorial(n)
    cur = []
    for block in spectrum.blocks.values():
        d = len(block)
        scale = d / fact if spectrum.normalization == "plain" else math.sqrt(d / fact)
        cur.append(scale * block.T[:, None])
    for k, _, level in reversed(recursion_levels(n)):
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
    out[coset_order_gather(n)] = cur[0].ravel()
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


def function_csv_rows(values):
    """A rank,value CSV of a function, built one f-string per row."""
    lines = ["rank,value"]
    for rank, value in enumerate(np.asarray(values, dtype=np.float64).tolist()):
        lines.append(f"{rank},{value:.17g}")
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


def integer_ratio_scales(step, n):
    """c_lam^d per partition, c_lam rounded once from integer ratios.

    With p = num/den and the character ratio a/b, c_lam is
    (num b + (den - num) a) / (den b); int true division rounds correctly.
    """
    num, den = step.p.as_integer_ratio()
    scales = {}
    for lam in enumerate_partitions(n):
        a, b = transposition_character_ratio(lam).as_integer_ratio()
        scales[lam] = float(float_power((num * b + (den - num) * a) / (den * b), step.d))
    return scales


def transposition_loop_kernel(step, n):
    """Rank-indexed kernel values: p at e, (1-p)/C(n,2) at each transposition
    (i j), ranked one at a time."""
    q = np.zeros(math.factorial(n))
    p = float(step.p)
    q[0] = p
    weight = (1.0 - p) / math.comb(n, 2)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        line = list(range(1, n + 1))
        line[i - 1], line[j - 1] = j, i
        q[lehmer_rank(lehmer_encode(Permutation(tuple(line))))] = weight
    return q


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
