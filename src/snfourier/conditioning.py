"""Bayesian conditioning on partial assignments and partial rankings.

An observation either pins the positions of chosen items (assignment) or
constrains the relative order of a chain of items (ranking, listed first to
last). The likelihood is two-valued: s on consistent permutations, 1-s
elsewhere, with s in (0.5, 1]; s = 1 is the hard projector.

Two interchangeable update routes are provided. The direct route evaluates
the predicate on every basis label. The reorder route right-translates the
basis so the touched items occupy the leading (or trailing) one-line slots,
where consistency is readable from a fixed window of Lehmer digits, then
translates back; it reproduces the direct route exactly and its swap counts
stay below k*n per direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ANNIHILATION_TOL, ENCODINGS, UNIT_NORM_TOL, AnnihilatedStateError
from .perms import Permutation, all_lehmer_digits, all_one_lines, \
    ranks_after_sequence, reorder_sequence
from .transform import function_degree


@dataclass(frozen=True)
class Observation:
    kind: str
    s: float = 1.0
    indices: tuple[int, ...] = ()
    values: tuple[int, ...] = ()
    items: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        object.__setattr__(self, "items", tuple(int(i) for i in self.items))
        if self.kind not in ("assignment", "ranking"):
            raise ValueError(f"kind must be assignment|ranking, got {self.kind!r}")
        if not 0.5 < self.s <= 1.0:
            raise ValueError(f"likelihood trust s must lie in (0.5, 1], got {self.s}")
        if self.kind == "assignment":
            if self.items:
                raise ValueError("assignment observations take no items")
            if len(self.indices) != len(self.values):
                raise ValueError("indices and values must pair up")
            pools = (self.indices, self.values)
        else:
            if self.indices or self.values:
                raise ValueError("ranking observations take only items")
            pools = (self.items,)
        for pool in pools:
            if len(set(pool)) != len(pool):
                raise ValueError("observation entries must be distinct")
            if any(v < 1 for v in pool):
                raise ValueError("observation entries must be >= 1")

    @property
    def is_empty(self) -> bool:
        if self.kind == "assignment":
            return not self.indices
        return len(self.items) <= 1

    def touched(self) -> tuple[int, ...]:
        return self.indices if self.kind == "assignment" else self.items

    def check_degree(self, n: int):
        pools = self.touched() + (self.values if self.kind == "assignment" else ())
        if any(v > n for v in pools):
            raise ValueError(f"observation references items beyond degree {n}")


def consistency_predicate(obs: Observation, sigma: Permutation) -> bool:
    """True when sigma satisfies every constraint of the observation."""
    obs.check_degree(sigma.n)
    line = sigma.one_line
    if obs.kind == "assignment":
        return all(line[i - 1] == j for i, j in zip(obs.indices, obs.values))
    positions = [line[i - 1] for i in obs.items]
    return all(a < b for a, b in zip(positions, positions[1:]))


def _consistent_mask(obs: Observation, n: int) -> np.ndarray:
    lines = all_one_lines(n)
    if obs.kind == "assignment":
        cols = np.asarray(obs.indices) - 1
        return np.all(lines[:, cols] == np.asarray(obs.values), axis=1)
    pos = lines[:, np.asarray(obs.items) - 1]
    return np.all(pos[:, 1:] > pos[:, :-1], axis=1)


def _scale_factors(mask: np.ndarray, s: float, encoding: str) -> np.ndarray:
    like = np.where(mask, s, 1.0 - s)
    return np.sqrt(like) if encoding == "born" else like


def _checked_state(state, encoding: str) -> tuple[np.ndarray, int]:
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be amplitude|born, got {encoding!r}")
    values = np.asarray(state, dtype=np.float64)
    n = function_degree(values)
    if abs(np.sum(values * values) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("state must be a unit vector")
    return values, n


def bayes_update(
    state, obs: Observation, encoding: str = "amplitude"
) -> tuple[np.ndarray, float]:
    """Pointwise likelihood product and renormalization; returns (state, p_s)."""
    values, n = _checked_state(state, encoding)
    obs.check_degree(n)
    if obs.is_empty:
        return values.copy(), 1.0
    scaled = values * _scale_factors(_consistent_mask(obs, n), obs.s, encoding)
    p_s = float(np.sum(scaled * scaled))
    if p_s <= ANNIHILATION_TOL:
        raise AnnihilatedStateError("conditioning left no posterior support")
    return scaled / math.sqrt(p_s), p_s


def success_probability_conditioning(h, obs: Observation) -> float:
    """Claim-level success probability h(phi)^2 N(t+1)/N(t) for a prior h."""
    values = np.asarray(h, dtype=np.float64)
    n = function_degree(values)
    obs.check_degree(n)
    if abs(values.sum() - 1.0) > UNIT_NORM_TOL or values.min() < -1e-12:
        raise ValueError("h must be a normalized probability function")
    if obs.is_empty:
        return 1.0
    mask = _consistent_mask(obs, n)
    pr = float(values[mask].sum())
    h_phi = obs.s * pr + (1.0 - obs.s) * (1.0 - pr)
    if h_phi == 0.0:
        return 0.0
    likelihood = np.where(mask, obs.s, 1.0 - obs.s)
    posterior = likelihood * values / h_phi
    n_t = float(np.sum(values * values))
    n_next = float(np.sum(posterior * posterior))
    return h_phi**2 * n_next / n_t


class CostReport(NamedTuple):
    """Operation counts of the reorder route."""

    window: str
    forward_swaps: int
    inverse_swaps: int
    digits_compared: int


def _window_digits(obs: Observation, n: int, pi: Permutation) -> np.ndarray:
    """Lehmer digits every consistent label shows in the reordered window.

    The window holds the touched items in ascending item order; surrogate
    values are the assigned target positions, or the chain ranks for a
    ranking, and digits count smaller values in the appropriate direction.
    """
    width = len(obs.touched())
    if obs.kind == "assignment":
        target = dict(zip(obs.indices, obs.values))
        vals = [target[pi(m)] for m in range(1, width + 1)]
        return np.array([
            v - 1 - sum(1 for w in vals[:m] if w < v)
            for m, v in enumerate(vals)
        ])
    chain = {item: rank for rank, item in enumerate(obs.items)}
    vals = [chain[pi(m)] for m in range(n - width + 1, n + 1)]
    return np.array([
        sum(1 for w in vals[m + 1:] if w < v) for m, v in enumerate(vals)
    ])


def reorder_update_condition(
    state, obs: Observation, encoding: str = "amplitude"
) -> tuple[np.ndarray, float, CostReport]:
    """Digit-window route to the same posterior as bayes_update.

    Relabels basis states by sigma -> sigma*pi, tests a fixed window of
    Lehmer digits instead of the full predicate, rescales, and relabels back.
    """
    values, n = _checked_state(state, encoding)
    obs.check_degree(n)
    window = "front" if obs.kind == "assignment" else "back"
    if obs.is_empty:
        return values.copy(), 1.0, CostReport(window, 0, 0, 0)
    pi, seq = reorder_sequence(
        n, obs.touched(), "to_front" if window == "front" else "to_back"
    )
    forward = ranks_after_sequence(n, seq)
    relabeled = np.empty_like(values)
    relabeled[forward] = values

    width = len(obs.touched())
    cols = np.arange(width) if window == "front" else np.arange(n - width, n)
    mask = np.all(
        all_lehmer_digits(n)[:, cols] == _window_digits(obs, n, pi), axis=1
    )
    scaled = relabeled * _scale_factors(mask, obs.s, encoding)
    p_s = float(np.sum(scaled * scaled))
    if p_s <= ANNIHILATION_TOL:
        raise AnnihilatedStateError("conditioning left no posterior support")
    scaled /= math.sqrt(p_s)

    backward = ranks_after_sequence(n, seq[::-1])
    out = np.empty_like(values)
    out[backward] = scaled
    return out, p_s, CostReport(window, len(seq), len(seq), width)
