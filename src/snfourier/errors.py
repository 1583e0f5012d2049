"""Shared exception types, the tolerances and names their checks use, and the
dense-storage degree guard."""

DEFAULT_DEGREE_GUARD = 9

ENCODINGS = ("amplitude", "born")

# how far |norm^2 - 1| may stray for an input that must be a unit vector
UNIT_NORM_TOL = 1e-8

# squared norms below this are float noise, not a survivable state
ANNIHILATION_TOL = 1e-24


class SnfourierError(Exception):
    """Base class for library errors."""


class DegreeGuardError(SnfourierError):
    """Raised when n exceeds the configured dense-storage guard."""


class PlanValidationError(SnfourierError):
    """Raised by plan/observation parsing; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class AnnihilatedStateError(SnfourierError):
    """Raised when a post-selected step leaves zero amplitude everywhere."""


def check_degree(n: int, guard: int | None = None) -> int:
    """Validate a degree against the dense n!-storage guard."""
    limit = DEFAULT_DEGREE_GUARD if guard is None else guard
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if n > limit:
        raise DegreeGuardError(f"n={n} exceeds dense-storage guard {limit}")
    return n
