"""Exception types shared across the package.

The closed forms raise DegenerateDenominator at a pole, or with
masked=True return NaN there plus the pole mask, so the caller decides
whether a degenerate point is fatal (library use) or just a NAN cell in a
CSV row (the CLI scans).
"""


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
    of its domain, over the row cap, or with a wall that has no finite,
    positive kinetic scale or file names that collide."""
