"""Exception types and the row cap shared across the package.

The closed forms raise DegenerateDenominator at a pole, or with
masked=True return NaN there plus the pole mask, so the caller decides
whether a degenerate point is fatal (library use) or just a NAN cell in a
CSV row (the CLI scans).
"""

# The most rows one output table may hold, ten times the largest benchmark
# table: config, the commands and walls.default_grid hold sizes to it, and
# `wall` holds the profiles of one run to it together.
MAX_ROWS = 1_000_000


class KessenceError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDenominator(KessenceError):
    """A rational expression was evaluated within tolerance of its pole."""


class InvalidGrid(KessenceError):
    """A profile sample does not straddle x = 0, where the walls' midpoint sits."""


class SingularMassMatrix(KessenceError):
    """The coefficient multiplying the field acceleration vanished."""


class StepFailure(KessenceError):
    """Adaptive step control could not meet the requested tolerance."""


class FitDomain(KessenceError):
    """The fit tail or slope window is too short or has rows with X <= X0."""


class ConfigError(KessenceError):
    """A configuration the commands cannot run: malformed, incomplete, out
    of its domain (a wall WallProfile rejects among them), over the row
    cap, or with file names that collide."""
