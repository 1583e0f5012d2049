"""Statevector execution of diffusion/conditioning plans over S_n.

A plan alternates diffusion steps (a DiffusionStep) and conditioning steps
(an Observation) on a unit state vector indexed by Lehmer rank; each step is
the object its layer applies. Non-unitary steps are applied as exact
sub-blocks: each multiplies the state and renormalizes, which matches
post-selecting an ancilla register without ever materializing one. run_plan
alone records each step's success probability in the ledger, so the product
of ledger entries equals the squared norm the unrenormalized pipeline would
reach.

Conditioning and sharpening are pointwise products in the permutation basis,
so they never move amplitude onto a new rank; only diffusion, a group
convolution, spreads the state. run_plan therefore keeps the state as its
amplitudes on the initial state's support (the prior's permutations, or the
identity) until the first diffusion step, which scatters it into the dense
n!-vector its transform needs. Sharpening runs on the support until the
first diffusion step too: a plan with no diffusion sharpens its support
amplitudes and scatters them once, at the end. The posterior reads the dense
vector.

Sampling uses NumPy's default_rng (PCG64) with a 64-bit seed; the generator
identity is part of the output contract, so seeded runs are reproducible
bit for bit. Computational draws take Generator.choice's own steps over the
nonzero ranks alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .conditioning import Observation, reorder_update_condition
from .diffusion import DiffusionStep, apply_diffusion_spectral, float_power, \
    success_probability_lower_bound
# no library code calls this; perfbench/spans.py patches it by name
from .diffusion import apply_diffusion_born
from .errors import CHECK_TOL, ENCODINGS, PlanValidationError, check_degree, \
    check_unit_norm, checked_state, renormalized
from .perms import Permutation, all_one_lines, encode_batch
from .transform import function_degree, gft_forward, gft_inverse


@dataclass
class ModelState:
    """Unit state vector over Lehmer ranks and the encoding it stores."""

    amplitudes: np.ndarray
    encoding: str

    def __post_init__(self):
        self.amplitudes = checked_state(self.amplitudes, self.encoding)
        function_degree(self.amplitudes)

    @property
    def n(self) -> int:
        return function_degree(self.amplitudes)

    def posterior(self) -> np.ndarray:
        """Classical distribution the state encodes; float noise clamped at 0."""
        p = np.maximum(self.amplitudes, 0.0)
        if self.encoding == "born":
            p *= p
        p /= p.sum()
        return p


def _scattered(size: int, ranks: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The size-long vector holding values at ranks and 0 elsewhere."""
    out = np.zeros(size)
    out[ranks] = values
    return out


def _valid_count(count) -> bool:
    # a float64 holds every integer count up to 2**53 exactly
    try:
        return 1 <= count <= 2**53 and int(count) == count
    except TypeError:  # None, "3"
        return False


def _entries_at_once(entries) -> Optional[tuple]:
    """Coerced (one_line, count) entries when every row is a permutation of
    1..n for one n and every count is valid, as one integer array; else None."""
    try:
        lines = np.array([one_line for one_line, _ in entries])
        counts = [int(count) for _, count in entries if _valid_count(count)]
    except (TypeError, ValueError, OverflowError):
        return None
    if lines.dtype.kind not in "iu" or lines.ndim != 2 or len(counts) != len(entries):
        return None
    if not np.all(np.sort(lines, axis=1) == np.arange(1, lines.shape[1] + 1)):
        return None
    return tuple(zip(map(tuple, lines.tolist()), counts))


@dataclass(frozen=True)
class EmpiricalInitial:
    """Dataset of observed permutations with multiplicities.

    Errors name the plan-schema key, dataset, that holds the entries.
    """

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise PlanValidationError("dataset", "empirical dataset must not be empty")
        coerced = _entries_at_once(self.entries)
        if coerced is None:
            # some entry fails: check one at a time, so the error names the first
            coerced = []
            for i, (one_line, count) in enumerate(self.entries):
                if not _valid_count(count):
                    raise PlanValidationError(
                        f"dataset[{i}].count", "count must be an integer in 1..2**53"
                    )
                try:
                    perm = Permutation(one_line)
                except ValueError as err:
                    raise PlanValidationError(f"dataset[{i}].one_line", str(err)) from None
                coerced.append((perm.one_line, int(count)))
            if len({len(ol) for ol, _ in coerced}) != 1:
                raise PlanValidationError(
                    "dataset", "dataset permutations must share one degree"
                )
        object.__setattr__(self, "entries", tuple(coerced))

    @property
    def degree(self) -> int:
        return len(self.entries[0][0])

    def support_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct ranks of the dataset and the total count of each."""
        one_lines, counts = zip(*self.entries)
        support, where = np.unique(encode_batch(one_lines), return_inverse=True)
        totals = np.zeros(len(support))
        # np.add.at adds in entry order, so a sum past 2**53 rounds as it always has
        np.add.at(totals, where, np.array(counts, dtype=np.float64))
        return support, totals

    # no library code calls this; perfbench/spans.py patches it by name
    def counts_vector(self, n: int) -> np.ndarray:
        ranks, counts = self.support_counts()
        return _scattered(math.factorial(n), ranks, counts)


@dataclass(frozen=True)
class ExperimentPlan:
    """A whole plan; each rule raises PlanValidationError naming its field.

    Each step is a DiffusionStep or an Observation to condition on.
    """

    n: int
    steps: tuple = ()
    encoding: str = "amplitude"
    initial: Union[str, EmpiricalInitial] = "identity"
    seed: int = 0
    sharpening: Optional[int] = None
    amplitude_empirical_ok: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise PlanValidationError("n", "a positive integer degree is required")
        if self.encoding not in ENCODINGS:
            raise PlanValidationError("encoding", "encoding must be amplitude|born")
        if not 0 <= self.seed < 2**64:
            raise PlanValidationError("seed", "seed must be an unsigned 64-bit integer")
        for i, step in enumerate(self.steps):
            if isinstance(step, Observation):
                try:
                    step.check_degree(self.n)
                except PlanValidationError as err:
                    raise err.under(f"steps[{i}].observation") from None
            elif not isinstance(step, DiffusionStep):
                raise PlanValidationError(f"steps[{i}]", f"unknown step {step!r}")
        if self.sharpening is not None and self.sharpening < 1:
            raise PlanValidationError("sharpening", "exponent must be an integer >= 1")
        if isinstance(self.initial, EmpiricalInitial):
            if self.initial.degree != self.n:
                raise PlanValidationError(
                    "initial.dataset",
                    f"dataset degree {self.initial.degree} differs from plan "
                    f"degree {self.n}",
                )
            if self.encoding == "amplitude" and not self.amplitude_empirical_ok:
                raise PlanValidationError(
                    "initial",
                    "empirical initial expects born encoding; "
                    "set amplitude_empirical_ok to override",
                )
        elif self.initial != "identity":
            raise PlanValidationError(
                "initial", "initial must be 'identity' or an empirical dataset"
            )
        for i, step in enumerate(self.steps):
            if isinstance(step, DiffusionStep) and self.n < 2:
                raise PlanValidationError(f"steps[{i}]", "diffusion steps need n >= 2")
        # the guard comes last, so a bad field is exit 2 even when n is too large
        check_degree(self.n)


class AmplificationCost(NamedTuple):
    """Order-of-magnitude iteration estimate; prefactors are a convention."""

    mode: str
    units: Optional[int]
    expected_repeats: Optional[float]
    note: str


_UNDERFLOW_NOTE = "; the positive product underflows double precision"
# degree cap of the explicit block encoding: W is (n!)^2 x (n!)^2, 1.7 GB at n = 5
_BLOCK_ENCODING_GUARD = 4

_AMPLIFICATION_NOTES = {
    "grover": "pi/4 prefactor and repeat count are conventions, not tight",
    "fixed_point": "ln(2/delta) prefactor is a convention, not tight",
}


def amplification_cost(
    p_success: float, mode: str, delta: float = 1e-3
) -> AmplificationCost:
    """Iterations to boost a success probability, by the standard estimates."""
    if not 0 < p_success <= 1:
        raise ValueError(f"success probability must lie in (0, 1], got {p_success}")
    if mode not in _AMPLIFICATION_NOTES:
        raise ValueError(f"mode must be grover|fixed_point, got {mode!r}")
    if mode == "fixed_point" and not 0 < delta < 1:
        raise ValueError(f"tolerance must lie in (0, 1), got {delta}")
    prefactor = math.pi / 4.0 if mode == "grover" else math.log(2.0 / delta)
    units = math.ceil(prefactor / math.sqrt(p_success))
    repeats = 1.0 / p_success if mode == "grover" else None
    return AmplificationCost(mode, units, repeats, _AMPLIFICATION_NOTES[mode])


def _amplification(p_total: float) -> dict:
    """Both estimates at p_total; a value with no finite double value is None.

    The exact product of success probabilities is positive, so a p_total of 0
    has underflowed: amplification_cost, which rejects 0, never sees it, and
    no value exists. A subnormal p_total can overflow 1/p_total alone.
    """
    costs = {}
    for mode, note in _AMPLIFICATION_NOTES.items():
        cost = (amplification_cost(p_total, mode) if p_total > 0.0
                else AmplificationCost(mode, None, None, note))
        if cost.units is None or cost.expected_repeats == math.inf:
            note += _UNDERFLOW_NOTE + (" to 0" if p_total == 0.0 else "")
            cost = cost._replace(expected_repeats=None, note=note)
        costs[mode] = cost
    return costs


@dataclass
class RunReport:
    p_total: float
    lower_bound: Optional[float]
    lower_bound_note: str
    state: ModelState
    ledger: list
    amplification: dict

    @property
    def posterior(self) -> np.ndarray:
        """The final state's classical distribution, built on each read."""
        return self.state.posterior()


def encode_distribution(h: np.ndarray, encoding: str) -> np.ndarray:
    """Unit state of a probability vector h: sqrt(h) for born, h/||h|| otherwise."""
    return np.sqrt(h) if encoding == "born" else h / np.linalg.norm(h)


def _initial_state(plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    """Sorted support ranks of the plan's initial state and its amplitudes there."""
    if plan.initial == "identity":
        return np.zeros(1, dtype=np.intp), np.ones(1)
    ranks, counts = plan.initial.support_counts()
    counts /= counts.sum()
    return ranks, encode_distribution(counts, plan.encoding)


def run_plan(plan: ExperimentPlan) -> tuple[ModelState, RunReport]:
    """Execute all steps in order; returns the final state and its report.

    Until the first diffusion step the state is kept as its amplitudes on
    the initial state's support, the only ranks conditioning and sharpening
    can leave nonzero; that step, or the end of the plan, scatters it into
    the dense n!-vector. So sharpening runs on the support when no diffusion
    step ran, and on the dense vector otherwise.
    """
    support, amps = _initial_state(plan)
    lines = all_one_lines(plan.n)[support]
    ledger: list = []
    for number, step in enumerate(plan.steps, start=1):
        if isinstance(step, DiffusionStep):
            if support is not None:
                amps = _scattered(math.factorial(plan.n), support, amps)
                support, lines = None, None
            # the block scaling and p_s are the same for both encodings
            out, p_s = apply_diffusion_spectral(gft_forward(amps, "unitary"), step)
            amps = gft_inverse(out)
            bound_value = None
            if step.p > 0:
                bound_value = success_probability_lower_bound(
                    plan.n, step.p, step.d
                ).value
            ledger.append({
                "step": number, "type": "diffusion", "p": step.p, "d": step.d,
                "success_prob": min(p_s, 1.0), "bound": bound_value,
            })
        else:
            amps, p_s, cost = reorder_update_condition(amps, step, plan.encoding, lines)
            ledger.append({
                "step": number, "type": "conditioning", "kind": step.kind,
                "s": step.s, "success_prob": min(p_s, 1.0), "bound": min(p_s, 1.0),
                # the relabeling swaps, then as many to uncompute them
                "swaps": 2 * cost.swaps,
            })
    if plan.sharpening is not None:
        amps, p_s = sharpen_map(amps, plan.sharpening)
        ledger.append({"step": len(plan.steps) + 1, "type": "sharpen",
                       "m": int(plan.sharpening), "success_prob": min(p_s, 1.0),
                       "bound": min(p_s, 1.0)})
    if support is not None:
        amps = _scattered(math.factorial(plan.n), support, amps)
    state = ModelState(amplitudes=amps, encoding=plan.encoding)

    p_total = math.prod((entry["success_prob"] for entry in ledger), start=1.0)
    bounds = [entry["bound"] for entry in ledger]
    if any(b is None for b in bounds):
        lower_bound = None
        note = "inapplicable: a diffusion step has no valid lower bound"
    else:
        lower_bound = math.prod(bounds, start=1.0)
        note = "diffusion bounds times measured conditioning probabilities"
        if lower_bound == 0.0:
            note += _UNDERFLOW_NOTE + " to 0"
    report = RunReport(
        p_total=p_total,
        lower_bound=lower_bound,
        lower_bound_note=note,
        state=state,
        ledger=ledger,
        amplification=_amplification(p_total),
    )
    return state, report


def sharpen_map(amplitudes: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """Entrywise power psi^m plus renormalization; returns (amplitudes, p_s).

    Models the ideal polynomial filter: the success probability is the
    squared norm of the powered state. Monotone, so the argmax and any ties
    survive at every exponent. Pointwise, so any entries that hold all the
    nonzero amplitudes, such as a state's support, sharpen like the whole.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"exponent must be a positive integer, got {m}")
    if m == 1:
        return amplitudes.copy(), 1.0
    # an amplitude rounded past 1 would overflow under a large exponent
    clipped = np.clip(amplitudes, -1.0, 1.0)
    powered = float_power(clipped, m)
    p_s = float(np.sum(np.multiply(powered, powered, out=clipped)))
    return renormalized(powered, p_s, "sharpening"), p_s


def sample_computational(state: ModelState, count: int, seed: int) -> np.ndarray:
    """Measure in the permutation basis: count draws with Pr ~ amplitude^2.

    Returns a (count, n) uint8 array; row i is the 1-based one-line form of
    draw i. The draws take Generator.choice's steps over the nonzero ranks
    alone: a rank of probability 0 adds nothing to the cdf, and searchsorted
    never returns it. They equal choice's draws over all n! ranks up to the
    last-ulp rounding of the cdf, which is normalised here by its own last
    entry rather than by a sum over all n! squares.
    """
    # one mask keeps flatnonzero's ranks: -0.0 out, subnormals and NaN in
    support = np.flatnonzero(state.amplitudes != 0.0)
    cdf = state.amplitudes[support]
    cdf *= cdf
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    uniform = np.random.default_rng(seed).random(int(count))
    return all_one_lines(state.n)[support[cdf.searchsorted(uniform, side="right")]]


def sample_fourier(
    state: ModelState, count: int, seed: int
) -> tuple[list, dict]:
    """Weak Fourier sampling: draw partitions with Pr = block energy.

    Returns (draws, exact distribution keyed by Partition).
    """
    exact = gft_forward(state.amplitudes, "unitary").sampling_distribution()
    lams = list(exact)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(lams), size=int(count), p=list(exact.values()))
    return [lams[i] for i in picks], exact


def state_prep_unitary(psi) -> np.ndarray:
    """Householder reflection carrying the rank-0 basis vector onto psi."""
    target = np.asarray(psi, dtype=np.float64)
    # the reflection is a dense (n!)^2 matrix: 13 GB at n = 8
    check_degree(function_degree(target), guard=_BLOCK_ENCODING_GUARD)
    check_unit_norm(float(np.sum(target * target)))
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
    check_degree(n, guard=_BLOCK_ENCODING_GUARD)
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
        ok=diagonal_error < CHECK_TOL and unitary_error < CHECK_TOL,
    )
