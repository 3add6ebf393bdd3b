"""Exception types, the row cap and `_invalid`, shared across the package.

A closed-form pole is not an exception: the model functions return NaN
there plus the pole mask, and the caller decides whether it is fatal or
a NAN cell in a CSV row (the CLI scans).
"""

from contextlib import contextmanager

# The most rows one output table may hold, ten times the largest benchmark
# table: ScanRange, StepControl, walls.default_grid and the commands hold
# sizes to it, and `wall` holds the profiles of one run to it together.
MAX_ROWS = 1_000_000


class KessenceError(Exception):
    """Base class for all package-specific errors."""


class SingularMassMatrix(KessenceError):
    """The coefficient multiplying the field acceleration vanished or
    overflowed."""


class StepFailure(KessenceError):
    """An evolve could not go on: the integration failed, V'/V diverged, or
    a column left the float range."""


class FitDomain(KessenceError):
    """The fit tail or slope window is too short or has rows with X <= X0."""


class ConfigError(KessenceError):
    """A configuration the commands cannot run: malformed, incomplete, out
    of its domain (a wall WallProfile rejects among them), over the row
    cap, or with file names that collide."""


@contextmanager
def _invalid(where: str):
    """Report a domain constructor's ValueError as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None
