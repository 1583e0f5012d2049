"""Shared exception types, the dense-storage degree guard, and the tolerances
with the checks that apply them: a step's input state is a unit vector within
UNIT_NORM_TOL, and a post-selected step whose success probability is at most
ANNIHILATION_TOL, which is float noise, has left no survivable state. The
verify battery and the block-encoding check accept a deviation from an exact
identity of at most CHECK_TOL."""

import numpy as np

DEFAULT_DEGREE_GUARD = 9

ENCODINGS = ("amplitude", "born")

UNIT_NORM_TOL = 1e-8
ANNIHILATION_TOL = 1e-24
CHECK_TOL = 1e-10


class SnfourierError(Exception):
    """Base class for library errors."""


class DegreeGuardError(SnfourierError):
    """Raised when n exceeds the configured dense-storage guard."""


class PlanValidationError(SnfourierError, ValueError):
    """Raised by the plan model and its JSON reader; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")

    def under(self, path: str) -> "PlanValidationError":
        """The same error with its field placed under a document path."""
        return PlanValidationError(f"{path}.{self.field}", self.reason)


class AnnihilatedStateError(SnfourierError):
    """Raised when a post-selected step leaves zero amplitude everywhere."""


def check_unit_norm(norm_sq: float) -> None:
    """Reject a squared norm that is NaN or strays from 1 by more than UNIT_NORM_TOL."""
    if not abs(norm_sq - 1.0) <= UNIT_NORM_TOL:
        raise ValueError(f"expected a unit-norm state, got squared norm {norm_sq!r}")


def checked_state(state, encoding: str) -> np.ndarray:
    """The state as a float64 array, once its encoding and unit norm are checked."""
    if encoding not in ENCODINGS:
        raise ValueError(f"encoding must be amplitude|born, got {encoding!r}")
    values = np.asarray(state, dtype=np.float64)
    # einsum sums the squares of every entry without an n!-long temporary
    flat = values.reshape(-1)
    check_unit_norm(float(np.einsum("i,i->", flat, flat)))
    return values


def renormalized(scaled: np.ndarray, p_s: float, step: str) -> np.ndarray:
    """Post-select a scaled state: divide scaled by sqrt(p_s), unless nothing survives.

    The division is in place: scaled itself is divided and returned, so pass
    an array no caller still reads.
    """
    if p_s <= ANNIHILATION_TOL:
        raise AnnihilatedStateError(f"{step} left no surviving amplitude")
    scaled /= np.sqrt(p_s)
    return scaled


def check_degree(n: int, guard: int | None = None) -> int:
    """Validate a degree against the dense n!-storage guard.

    A given guard can only tighten the default, never loosen it, and must be
    at least 1: a guard below that is a bad option value, not a violation.
    """
    if guard is not None and guard < 1:
        raise ValueError(f"degree guard must be >= 1, got {guard}")
    limit = DEFAULT_DEGREE_GUARD if guard is None else min(guard, DEFAULT_DEGREE_GUARD)
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n > limit:
        raise DegreeGuardError(f"n={n} exceeds dense-storage guard {limit}")
    return n
