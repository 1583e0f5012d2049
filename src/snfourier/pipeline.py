"""Statevector execution of diffusion/conditioning plans over S_n.

A plan alternates diffusion and conditioning steps on a unit state vector
indexed by Lehmer rank. Non-unitary steps are applied as exact sub-blocks:
each multiplies the state, records its success probability in the ledger,
and renormalizes, which matches post-selecting an ancilla register without
ever materializing one. The product of ledger entries therefore equals the
squared norm the unrenormalized pipeline would reach.

Sampling uses NumPy's default_rng (PCG64) with a 64-bit seed; the generator
identity is part of the output contract, so seeded runs are reproducible
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .conditioning import Observation, reorder_update_condition
from .diffusion import DiffusionKernel, apply_diffusion_born, \
    apply_diffusion_spectral, success_probability_lower_bound
from .errors import ANNIHILATION_TOL, ENCODINGS, UNIT_NORM_TOL, AnnihilatedStateError, \
    check_degree
from .partitions import Partition, enumerate_partitions
from .perms import Permutation, all_one_lines, lehmer_encode, lehmer_rank
from .transform import function_degree, gft_forward, gft_inverse


@dataclass
class ModelState:
    """Unit state vector over Lehmer ranks plus its success-probability ledger."""

    amplitudes: np.ndarray
    encoding: str
    t: int = 0
    ledger: list = field(default_factory=list)

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.float64)
        function_degree(self.amplitudes)
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be amplitude|born, got {self.encoding!r}")
        norm_sq = float(np.sum(self.amplitudes * self.amplitudes))
        if abs(norm_sq - 1.0) > UNIT_NORM_TOL:
            raise ValueError("amplitudes must form a unit vector")

    @property
    def n(self) -> int:
        return function_degree(self.amplitudes)

    def posterior(self) -> np.ndarray:
        """Classical distribution the state encodes; float noise clamped at 0."""
        a = np.maximum(self.amplitudes, 0.0)
        p = a if self.encoding == "amplitude" else a * a
        return p / p.sum()


@dataclass(frozen=True)
class DiffusionStep:
    # A Fraction here keeps the spectral bound exact (rational regime).
    p: Union[float, Fraction]
    d: int = 1

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"stay probability must lie in [0, 1], got {self.p}")
        if self.d < 1:
            raise ValueError("step count must be >= 1")


@dataclass(frozen=True)
class ConditioningStep:
    observation: Observation


@dataclass(frozen=True)
class EmpiricalInitial:
    """Dataset of observed permutations with multiplicities."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empirical dataset must not be empty")
        coerced = []
        for one_line, count in self.entries:
            if int(count) != count or count < 1:
                raise ValueError("dataset counts must be positive integers")
            perm = Permutation(tuple(int(v) for v in one_line))
            coerced.append((perm.one_line, int(count)))
        if len({len(ol) for ol, _ in coerced}) != 1:
            raise ValueError("dataset permutations must share one degree")
        object.__setattr__(self, "entries", tuple(coerced))

    @property
    def degree(self) -> int:
        return len(self.entries[0][0])

    def counts_vector(self, n: int) -> np.ndarray:
        counts = np.zeros(math.factorial(n))
        for one_line, count in self.entries:
            counts[lehmer_rank(lehmer_encode(Permutation(one_line)))] += count
        return counts


@dataclass(frozen=True)
class ExperimentPlan:
    n: int
    steps: tuple = ()
    encoding: str = "amplitude"
    initial: Union[str, EmpiricalInitial] = "identity"
    seed: int = 0
    sharpening: Optional[int] = None
    amplitude_empirical_ok: bool = False

    def __post_init__(self):
        check_degree(self.n)
        if self.encoding not in ENCODINGS:
            raise ValueError(f"encoding must be amplitude|born, got {self.encoding!r}")
        if isinstance(self.initial, str):
            if self.initial != "identity":
                raise ValueError(f"unknown initial state {self.initial!r}")
        elif isinstance(self.initial, EmpiricalInitial):
            if self.initial.degree != self.n:
                raise ValueError("empirical dataset degree differs from plan degree")
            if self.encoding == "amplitude" and not self.amplitude_empirical_ok:
                raise ValueError(
                    "empirical initial expects born encoding; set "
                    "amplitude_empirical_ok to override"
                )
        else:
            raise ValueError("initial must be 'identity' or an EmpiricalInitial")
        for step in self.steps:
            if isinstance(step, DiffusionStep):
                if self.n < 2:
                    raise ValueError("diffusion steps need n >= 2")
            elif isinstance(step, ConditioningStep):
                step.observation.check_degree(self.n)
            else:
                raise ValueError(f"unknown step {step!r}")
        if self.sharpening is not None and self.sharpening < 1:
            raise ValueError("sharpening exponent must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


class AmplificationCost(NamedTuple):
    """Order-of-magnitude iteration estimate; prefactors are a convention."""

    mode: str
    units: int
    expected_repeats: Optional[float]
    note: str


def amplification_cost(
    p_success: float, mode: str, delta: float = 1e-3
) -> AmplificationCost:
    """Iterations to boost a success probability, by the standard estimates."""
    if not 0 < p_success <= 1:
        raise ValueError(f"success probability must lie in (0, 1], got {p_success}")
    if mode == "grover":
        units = math.ceil((math.pi / 4.0) / math.sqrt(p_success))
        return AmplificationCost(
            "grover", units, 1.0 / p_success,
            "pi/4 prefactor and repeat count are conventions, not tight",
        )
    if mode == "fixed_point":
        if not 0 < delta < 1:
            raise ValueError(f"tolerance must lie in (0, 1), got {delta}")
        units = math.ceil(math.log(2.0 / delta) / math.sqrt(p_success))
        return AmplificationCost(
            "fixed_point", units, None,
            "ln(2/delta) prefactor is a convention, not tight",
        )
    raise ValueError(f"mode must be grover|fixed_point, got {mode!r}")


@dataclass
class RunReport:
    p_total: float
    lower_bound: Optional[float]
    lower_bound_note: str
    posterior: np.ndarray
    ledger: list
    amplification: dict


def _initial_amplitudes(plan: ExperimentPlan) -> np.ndarray:
    if plan.initial == "identity":
        amps = np.zeros(math.factorial(plan.n))
        amps[0] = 1.0
        return amps
    counts = plan.initial.counts_vector(plan.n)
    h = counts / counts.sum()
    if plan.encoding == "born":
        return np.sqrt(h)
    return h / np.linalg.norm(h)


def run_plan(plan: ExperimentPlan) -> tuple[ModelState, RunReport]:
    """Execute all steps in order; returns the final state and its report."""
    amps = _initial_amplitudes(plan)
    ledger: list = []
    bounds: list = []
    for number, step in enumerate(plan.steps, start=1):
        if isinstance(step, DiffusionStep):
            kernel = DiffusionKernel(p=step.p, n=plan.n, d=step.d)
            spectrum = gft_forward(amps, "unitary")
            if plan.encoding == "amplitude":
                out, p_s = apply_diffusion_spectral(spectrum, kernel)
            else:
                out, renorm = apply_diffusion_born(spectrum, kernel)
                p_s = renorm * renorm
            amps = gft_inverse(out)
            bound_value = None
            if step.p > 0:
                bound_value = success_probability_lower_bound(
                    plan.n, step.p, step.d
                ).value
            ledger.append({
                "step": number, "type": "diffusion", "p": step.p, "d": step.d,
                "success_prob": p_s, "bound": bound_value,
            })
            bounds.append(bound_value)
        else:
            obs = step.observation
            amps, p_s, cost = reorder_update_condition(amps, obs, plan.encoding)
            ledger.append({
                "step": number, "type": "conditioning", "kind": obs.kind,
                "s": obs.s, "success_prob": p_s, "bound": p_s,
                "swaps": cost.forward_swaps + cost.inverse_swaps,
            })
            bounds.append(p_s)
    state = ModelState(
        amplitudes=amps, encoding=plan.encoding, t=len(plan.steps), ledger=ledger
    )
    if plan.sharpening is not None:
        state, p_s = sharpen_map(state, plan.sharpening)
        bounds.append(p_s)

    p_total = 1.0
    for entry in state.ledger:
        p_total *= entry["success_prob"]
    if any(b is None for b in bounds):
        lower_bound = None
        note = "inapplicable: a diffusion step has no valid lower bound"
    else:
        lower_bound = 1.0
        for b in bounds:
            lower_bound *= b
        note = "diffusion bounds times measured conditioning probabilities"
    report = RunReport(
        p_total=p_total,
        lower_bound=lower_bound,
        lower_bound_note=note,
        posterior=state.posterior(),
        ledger=state.ledger,
        amplification={
            "grover": amplification_cost(p_total, "grover"),
            "fixed_point": amplification_cost(p_total, "fixed_point"),
        },
    )
    return state, report


def sharpen_map(state: ModelState, m: int) -> tuple[ModelState, float]:
    """Entrywise power psi^m plus renormalization; returns (state, p_s).

    Models the ideal polynomial filter: the success probability is the
    squared norm of the powered state. Monotone, so the argmax and any ties
    survive at every exponent.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"exponent must be a positive integer, got {m}")
    entry = {"step": state.t + 1, "type": "sharpen", "m": int(m)}
    if m == 1:
        p_s = 1.0
        amps = state.amplitudes.copy()
    else:
        powered = state.amplitudes**m
        p_s = float(np.sum(powered * powered))
        if p_s <= ANNIHILATION_TOL:
            raise AnnihilatedStateError(
                f"sharpening with m={m} underflowed every amplitude"
            )
        amps = powered / math.sqrt(p_s)
    entry["success_prob"] = p_s
    entry["bound"] = p_s
    return ModelState(
        amplitudes=amps, encoding=state.encoding, t=state.t + 1,
        ledger=state.ledger + [entry],
    ), p_s


def sample_computational(state: ModelState, count: int, seed: int) -> list:
    """Measure in the permutation basis: count draws with Pr ~ amplitude^2."""
    probs = state.amplitudes * state.amplitudes
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    ranks = rng.choice(len(probs), size=int(count), p=probs)
    lines = all_one_lines(state.n)
    return [Permutation(tuple(int(v) for v in lines[r])) for r in ranks]


def sample_fourier(
    state: ModelState, count: int, seed: int
) -> tuple[list, dict]:
    """Weak Fourier sampling: draw partitions with Pr = block energy.

    Returns (draws, exact distribution keyed by Partition).
    """
    spectrum = gft_forward(state.amplitudes, "unitary")
    lams = enumerate_partitions(state.n)
    weights = np.array([spectrum.energies()[lam] for lam in lams])
    weights = np.maximum(weights, 0.0)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(lams), size=int(count), p=weights)
    exact = {lam: float(w) for lam, w in zip(lams, weights)}
    return [lams[i] for i in picks], exact


def state_prep_unitary(psi) -> np.ndarray:
    """Householder reflection carrying the rank-0 basis vector onto psi."""
    target = np.asarray(psi, dtype=np.float64)
    function_degree(target)
    if abs(float(np.sum(target * target)) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("psi must be a unit vector")
    diff = target.copy()
    diff[0] -= 1.0
    norm_sq = float(diff @ diff)
    if norm_sq < 1e-28:
        return np.eye(len(target))
    return np.eye(len(target)) - (2.0 / norm_sq) * np.outer(diff, diff)


class BlockEncodingReport(NamedTuple):
    n: int
    diagonal: np.ndarray
    diagonal_error: float
    unitary_error: float
    ok: bool


def verify_posterior_block_encoding(prep: np.ndarray) -> BlockEncodingReport:
    """Build W = (I x prep^T) V_copy explicitly and check its (0,0) block.

    V_copy shifts the ancilla label by the system label mod n!, which copies
    the basis label onto a zeroed ancilla. The top-left ancilla block of W
    must equal diag(psi) for psi the first column of prep.
    """
    prep = np.asarray(prep, dtype=np.float64)
    if prep.ndim != 2 or prep.shape[0] != prep.shape[1]:
        raise ValueError("state preparation must be a square matrix")
    fact = prep.shape[0]
    n = function_degree(prep[:, 0])
    check_degree(n, guard=4)
    psi = prep[:, 0]

    dim = fact * fact
    v_copy = np.zeros((dim, dim))
    for s in range(fact):
        for a in range(fact):
            v_copy[s * fact + (a + s) % fact, s * fact + a] = 1.0
    w = np.kron(np.eye(fact), prep.T) @ v_copy

    anchor = np.arange(fact) * fact
    block = w[np.ix_(anchor, anchor)]
    diagonal = np.diag(block).copy()
    diagonal_error = float(np.max(np.abs(block - np.diag(psi))))
    unitary_error = float(np.max(np.abs(w.T @ w - np.eye(dim))))
    return BlockEncodingReport(
        n=n,
        diagonal=diagonal,
        diagonal_error=diagonal_error,
        unitary_error=unitary_error,
        ok=diagonal_error < 1e-10 and unitary_error < 1e-10,
    )
