"""Bayesian conditioning on partial assignments and partial rankings.

An observation either pins the positions of chosen items (assignment) or
constrains the relative order of a chain of items (ranking, listed first to
last). The likelihood is two-valued: s on consistent permutations, 1-s
elsewhere, with s in (0.5, 1]; s = 1 is the hard projector.

The update is the pointwise product of the likelihood with the state in the
permutation basis, then post-selection, over one mask of consistent basis
labels. One body, bayes_update, computes it for any values that line up with
rows of the one-line table: a dense state reads the whole cached table, while
run_plan passes a state kept on its prior's support together with that
support's rows, so no step reads the other n! entries.

A circuit would evaluate the same predicate by right-translating the basis,
sigma -> sigma*pi, so the touched items occupy the leading (or trailing)
one-line slots, and reading a fixed window of Lehmer digits there.
reorder_update_condition reports the adjacent swaps that relabeling costs,
sum_m |idx_m - t_m| over the sorted touched slots idx_1 < ... < idx_k and
their window slots t_m (m in front, n - k + m at the back), without building
the swap list. The window readout itself lives in verify, as the oracle the
mask is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UNIT_NORM_TOL, PlanValidationError, checked_state, renormalized
from .perms import all_one_lines
# no library code calls this; perfbench/spans.py patches it by name
from .perms import ranks_after_sequence
from .transform import function_degree


@dataclass(frozen=True)
class Observation:
    kind: str
    s: float = 1.0
    indices: tuple[int, ...] = ()
    values: tuple[int, ...] = ()
    items: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("indices", "values", "items"):
            given = getattr(self, name)
            try:
                given = tuple(given)
                coerced = tuple(int(v) for v in given)
            except (TypeError, ValueError, OverflowError):  # None, inf, "x"
                coerced = None
            if coerced is None or coerced != given:
                raise PlanValidationError(
                    name, f"observation entries must be integers, got {given}")
            object.__setattr__(self, name, coerced)
        if self.kind not in ("assignment", "ranking"):
            raise PlanValidationError(
                "kind", f"kind must be assignment|ranking, got {self.kind!r}"
            )
        if not 0.5 < self.s <= 1.0:
            raise PlanValidationError(
                "s", f"likelihood weight must lie in (0.5, 1], got {self.s}"
            )
        if self.kind == "assignment":
            if self.items:
                raise PlanValidationError("items", "assignments take no items")
            if len(self.indices) != len(self.values):
                raise PlanValidationError("values", "indices and values must pair up")
            pools = ("indices", "values")
        else:
            if self.indices or self.values:
                field = "indices" if self.indices else "values"
                raise PlanValidationError(field, "ranking observations take only items")
            pools = ("items",)
        for name in pools:
            pool = getattr(self, name)
            if len(set(pool)) != len(pool):
                raise PlanValidationError(name, "observation entries must be distinct")
            if any(v < 1 for v in pool):
                raise PlanValidationError(name, "observation entries must be >= 1")

    @property
    def is_empty(self) -> bool:
        if self.kind == "assignment":
            return not self.indices
        return len(self.items) <= 1

    def touched(self) -> tuple[int, ...]:
        return self.indices if self.kind == "assignment" else self.items

    def check_degree(self, n: int):
        for name in ("indices", "values", "items"):
            if any(v > n for v in getattr(self, name)):
                raise PlanValidationError(
                    name, f"observation references items beyond degree {n}"
                )


def _consistent_mask(obs: Observation, lines: np.ndarray) -> np.ndarray:
    """Consistency of each row of lines, rows of the (n!, n) one-line table."""
    slots = lines.T
    if obs.kind == "assignment":
        checks = (slots[i - 1] == v for i, v in zip(obs.indices, obs.values))
    else:
        checks = (slots[a - 1] < slots[b - 1] for a, b in zip(obs.items, obs.items[1:]))
    mask = next(checks)
    for check in checks:
        mask &= check
    return mask


def _scaled(values, mask, weights, out) -> np.ndarray:
    """values times the likelihood, weights[0] where mask holds, into out."""
    np.multiply(values, weights[1], out=out)
    return np.multiply(values, weights[0], out=out, where=mask)


def bayes_update(
    state, obs: Observation, encoding: str = "amplitude", lines=None
) -> tuple[np.ndarray, float]:
    """Pointwise likelihood product and renormalization; returns (state, p_s).

    lines are the one-line table rows the state's values line up with; by
    default the whole table, for a dense state. The state-length array it
    returns is the only one it allocates: it takes the squares for p_s, then
    the scaled values again, and is divided in place.
    """
    values = checked_state(state, encoding)
    if lines is None:
        lines = all_one_lines(function_degree(values))
    if len(lines) != len(values):
        raise ValueError(f"{len(values)} values do not line up with {len(lines)} rows")
    obs.check_degree(lines.shape[1])
    if obs.is_empty:
        return values.copy(), 1.0
    weights = (obs.s, 1.0 - obs.s)
    if encoding == "born":
        weights = tuple(map(math.sqrt, weights))
    mask = _consistent_mask(obs, lines)
    out = _scaled(values, mask, weights, np.empty_like(values))
    p_s = float(np.sum(np.multiply(out, out, out=out)))
    return renormalized(_scaled(values, mask, weights, out), p_s, "conditioning"), p_s


def success_probability_conditioning(h, obs: Observation) -> float:
    """Claim-level success probability h(phi)^2 N(t+1)/N(t) for a prior h."""
    values = np.asarray(h, dtype=np.float64)
    n = function_degree(values)
    obs.check_degree(n)
    if abs(values.sum() - 1.0) > UNIT_NORM_TOL or values.min() < -1e-12:
        raise ValueError("h must be a normalized probability function")
    if obs.is_empty:
        return 1.0
    mask = _consistent_mask(obs, all_one_lines(n))
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
    """Digit window the circuit reads the observation from, and the adjacent
    swaps that relabel the basis onto it; uncomputing costs as many again."""

    window: str
    swaps: int


def reorder_update_condition(
    state, obs: Observation, encoding: str = "amplitude", lines=None
) -> tuple[np.ndarray, float, CostReport]:
    """bayes_update, plus the swap count of the circuit's window readout.

    Assignments read a front window and rankings a back window. Moving the
    sorted touched slots idx_1 < ... < idx_k onto window slots t_m, with
    t_m = m in front and n - k + m at the back, takes sum_m |idx_m - t_m|
    adjacent swaps; the count is that arithmetic, and the basis is never
    relabeled.
    """
    posterior, p_s = bayes_update(state, obs, encoding, lines)
    window = "front" if obs.kind == "assignment" else "back"
    idx = sorted(() if obs.is_empty else obs.touched())
    n = function_degree(posterior) if lines is None else lines.shape[1]
    first = 1 if window == "front" else n - len(idx) + 1
    swaps = sum(abs(i - t) for t, i in enumerate(idx, start=first))
    return posterior, p_s, CostReport(window, swaps)
