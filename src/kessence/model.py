"""Pure kinetic k-essence model with a quadratic kinetic function.

The Lagrangian pressure factorizes as p = V(phi) * F(X), with the kinetic
function expanded to second order about its extremum X0:

    F(X) = F0 + F2 * (X - X0)^2,          F_X(X0) = 0.

All thermodynamic quantities follow from F and its derivatives:

    rho  = V * (2 X F_X - F)
    w    = p / rho = F / (2 X F_X - F)          (V cancels)
    cs2  = F_X / (F_X + 2 X F_XX)

For the quadratic F the sound speed reduces to (X - X0)/(3 X - X0); the
exact evaluators here must satisfy that identity to machine precision (it
is asserted by the test suite).

Alongside the exact forms, this module carries the simplified thin-wall
limit expressions for w and cs2 (`w_thinwall_approx`, `cs2_thinwall_approx`).
Those are *not* algebraically equivalent to the exact forms and are never
substituted for them; the CLI reports both side by side so the discrepancy
stays visible.

Everything is dimensionless (natural units). Functions accept floats or
numpy arrays and broadcast. Every rational-function pole goes through one
rule, `guarded_div`: the closed forms raise
:class:`~kessence.errors.DegenerateDenominator` at a pole, or with
masked=True return (values, pole mask) with NaN at the poles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDenominator

# Pole guard: a denominator within 1e-12 of the magnitude of its own terms
# is treated as degenerate (these are exact poles of rational functions).
DEN_GUARD = 1e-12


def guarded_div(num, den, scale):
    """num / den under the pole rule |den| <= DEN_GUARD * scale.

    Returns (quotient, pole): the quotient is NaN where the rule fires and
    pole is that mask (a bool for scalar inputs, an array otherwise).
    """
    pole = abs(den) <= DEN_GUARD * scale
    if isinstance(pole, (bool, np.bool_)):
        return (np.nan if pole else num / den), pole
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pole, np.nan, num / den), pole


def _checked(values, pole, masked: bool, error: Exception):
    """(values, pole) if masked; else values, raising error at any pole."""
    if masked:
        return values, pole
    if np.any(pole):
        raise error
    return values


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KineticModel:
    """Quadratic kinetic function parameters plus the perturbation eps0.

    F0 defaults to -1 so that rho = -V*F0 > 0 at the extremum (positive
    vacuum energy); it must be nonzero or w at X0 is indeterminate.
    """

    F2: float
    X0: float
    eps0: float = 0.0
    F0: float = -1.0

    def __post_init__(self):
        if not np.all(self.F2 >= 0):
            raise ValueError("F2 must be >= 0 (expansion about an extremum)")
        if not np.all(self.X0 > 0):
            raise ValueError("X0 must be > 0")
        if not np.all(self.F0 != 0):
            raise ValueError("F0 must be nonzero")
        if not np.all(self.eps0 >= 0):
            raise ValueError("eps0 must be >= 0")


@dataclass(frozen=True)
class ConstantPotential:
    """V(phi) = V0, a flat potential."""

    V0: float

    def __post_init__(self):
        if not self.V0 > 0:
            raise ValueError("V0 must be > 0")

    def value(self, phi):
        return self.V0 + 0.0 * phi

    def curvature(self, phi):
        return 0.0 * phi

    def log_slope(self, phi):
        """V'/V, identically zero."""
        return 0.0 * phi


@dataclass(frozen=True)
class QuadraticPotential:
    """V(phi) = m2 * phi^2 (proportionality constant m2 > 0)."""

    m2: float

    def __post_init__(self):
        if not self.m2 > 0:
            raise ValueError("m2 must be > 0")

    def value(self, phi):
        return self.m2 * phi * phi

    def curvature(self, phi):
        return 2.0 * self.m2 + 0.0 * phi

    def log_slope(self, phi):
        """V'/V = 2/phi.  Raises ZeroDivisionError at phi = 0, where the
        logarithmic slope genuinely diverges."""
        return 2.0 / float(phi)


PotentialSpec = ConstantPotential | QuadraticPotential


@dataclass(frozen=True)
class ScalingSolution:
    """Late-time dilution solution X = X0 * (1 + eps1 * (a/a1)^-3)."""

    X0: float
    eps1: float
    a1: float

    def __post_init__(self):
        if not self.X0 > 0:
            raise ValueError("X0 must be > 0")
        if not self.a1 > 0:
            raise ValueError("a1 must be > 0")


class RegimeLabel(str, Enum):
    RADIATION_LIKE = "RadiationLike"
    DARK_MATTER_LIKE = "DarkMatterLike"
    DARK_ENERGY_MIX = "DarkEnergyMix"
    COSMOLOGICAL_CONSTANT = "CosmologicalConstant"
    UNCLASSIFIED = "Unclassified"


# Classification thresholds (documented in the README). The label bands in w
# are mutually disjoint, so the condition order in classify_regimes does not
# matter.
W_BAND = 0.05
CS2_DUST_MAX = 0.01


# ---------------------------------------------------------------------------
# Kinetic function and exact thermodynamics
# ---------------------------------------------------------------------------

def eval_F(model: KineticModel, X):
    """F(X) = F0 + F2 * (X - X0)^2."""
    d = X - model.X0
    return model.F0 + model.F2 * d * d


def eval_F_X(model: KineticModel, X):
    """dF/dX = 2 F2 (X - X0)."""
    return 2.0 * model.F2 * (X - model.X0)


def eval_F_XX(model: KineticModel, X):
    """d2F/dX2 = 2 F2 (constant for the quadratic expansion)."""
    return 2.0 * model.F2 + 0.0 * X


def pressure(model: KineticModel, potential: PotentialSpec, phi, X):
    """p = V(phi) * F(X)."""
    return potential.value(phi) * eval_F(model, X)


def density(model: KineticModel, potential: PotentialSpec, phi, X):
    """rho = V(phi) * (2 X F_X - F)."""
    return potential.value(phi) * (2.0 * X * eval_F_X(model, X) - eval_F(model, X))


def eos_w(model: KineticModel, X, *, masked: bool = False):
    """Equation of state w = F / (2 X F_X - F); the potential cancels.

    At X = X0 the derivative term vanishes and w = -1 exactly. F itself
    crossing zero is a legitimate w = 0 point, not a singularity; only the
    denominator is guarded.
    """
    F = eval_F(model, X)
    t1 = 2.0 * X * eval_F_X(model, X)
    return _checked(*guarded_div(F, t1 - F, np.maximum(np.abs(t1), np.abs(F))),
                    masked, DegenerateDenominator(
                        "equation-of-state denominator 2*X*F_X - F is degenerate"))


def sound_speed(model: KineticModel, X, *, masked: bool = False):
    """Perturbation sound speed cs2 = F_X / (F_X + 2 X F_XX).

    For the quadratic F this equals (X - X0)/(3 X - X0), so it vanishes at
    the extremum and has a pole at X = X0/3.
    """
    F_X = eval_F_X(model, X)
    t2 = 2.0 * X * eval_F_XX(model, X)
    return _checked(*guarded_div(F_X, F_X + t2, np.maximum(np.abs(F_X), np.abs(t2))),
                    masked, DegenerateDenominator(
                        "sound-speed denominator F_X + 2*X*F_XX is degenerate"))


# ---------------------------------------------------------------------------
# Closed forms at the perturbed kinetic state X = X0 + eps0
# ---------------------------------------------------------------------------

def sound_speed_perturbed(model: KineticModel, *, masked: bool = False):
    """cs2 at X = X0 + eps0 in closed form: 1 / (3 + 2 X0/eps0).

    Algebraically identical to sound_speed(model, X0 + eps0); requires
    eps0 > 0 (ValueError otherwise). masked=True returns (cs2, pole) with
    NaN where eps0 = 0 instead.
    """
    ratio, pole = guarded_div(2.0 * model.X0, model.eps0, 0.0)
    return _checked(1.0 / (3.0 + ratio), pole, masked,
                    ValueError("sound_speed_perturbed requires eps0 > 0"))


def w_perturbed_exact(model: KineticModel, *, masked: bool = False):
    """w at X = X0 + eps0 in closed form.

    Evaluates -1 / (1 - 4 (X0+eps0) eps0 F2 / F(X0+eps0)) with the
    denominator cleared, i.e. -F / (F - 4 (X0+eps0) F2 eps0), which is the
    same rational function as eos_w at the perturbed state and stays
    defined where F crosses zero.
    """
    e = model.eps0
    F = model.F0 + model.F2 * e * e
    t = 4.0 * (model.X0 + e) * model.F2 * e
    return _checked(*guarded_div(-F, F - t, np.maximum(np.abs(F), np.abs(t))),
                    masked, DegenerateDenominator("perturbed-w denominator is degenerate"))


# ---------------------------------------------------------------------------
# Thin-wall limit approximations (kept distinct from the exact forms)
# ---------------------------------------------------------------------------

def w_thinwall_approx(X0, eps0, F2, *, masked: bool = False):
    """Simplified steep-wall estimate w = -1 / (1 - 4 X0 eps0 / F2).

    Drops the F0 contribution retained by `w_perturbed_exact`; the two
    disagree badly away from eps0 = 0 (e.g. X0 = F2 = 1e3, eps0 = 1e-2
    gives -1/0.96 here versus ~ -2.25e-5 exactly). Reported separately so
    the regime table can show both.
    """
    t = 4.0 * X0 * eps0 / F2
    return _checked(*guarded_div(-1.0, 1.0 - t, np.maximum(1.0, np.abs(t))),
                    masked, DegenerateDenominator(
                        "thin-wall w denominator 1 - 4*X0*eps0/F2 is degenerate"))


def cs2_thinwall_approx(X0, eps0, *, masked: bool = False):
    """Simplified wall-limit sound speed 1 / (1 + 4 X0 (1 + X0/(2 eps0))).

    Strictly decreasing in X0: -> 1 as X0 -> 0+ (thick wall), -> 0 as
    X0 -> inf (thin wall). Not equivalent to the exact `sound_speed`.
    Requires eps0 > 0 (ValueError otherwise); masked=True returns
    (cs2, pole) with NaN where eps0 = 0 instead.
    """
    if not np.all(eps0 >= 0):
        raise ValueError("cs2_thinwall_approx requires eps0 > 0")
    ratio, pole = guarded_div(X0, 2.0 * eps0, 0.0)
    den = 1.0 + 4.0 * X0 * (1.0 + ratio)
    if not np.all((den > 0) | pole):
        raise ValueError("cs2_thinwall_approx denominator must be positive")
    return _checked(1.0 / den, pole, masked,
                    ValueError("cs2_thinwall_approx requires eps0 > 0"))


# ---------------------------------------------------------------------------
# Dilution scaling solution
# ---------------------------------------------------------------------------

def scaling_cs2_of_a(s: ScalingSolution, a, mode: str = "exact"):
    """Sound speed along the scaling solution.

    mode="exact" evaluates (X - X0)/(3 X - X0) at X = X0 (1 + eps1 (a/a1)^-3);
    mode="first_order" evaluates eps1/2 * (a/a1)^-3. For |eps1| << 1 the
    two agree to O(eps1^2).
    """
    if not np.all(a > 0):
        raise ValueError("scale factor a must be > 0")
    decay = s.eps1 * (a / s.a1) ** -3.0
    if mode == "first_order":
        return 0.5 * decay
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'first_order'")
    X = s.X0 * (1.0 + decay)
    return _checked(*guarded_div(X - s.X0, 3.0 * X - s.X0,
                                 np.maximum(np.abs(3.0 * X), np.abs(s.X0))),
                    False, DegenerateDenominator(
                        "scaling cs2 denominator 3*X - X0 is degenerate"))


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

def classify_regimes(w, cs2):
    """Regime label strings (RegimeLabel values) for arrays of (w, cs2).

    CosmologicalConstant: |w + 1| <= 0.05 and cs2 <= 0.01
    DarkMatterLike:       |w|     <= 0.05 and cs2 <= 0.01
    RadiationLike:        |w - 1/3| <= 0.05
    DarkEnergyMix:        -0.95 < w < -0.05
    otherwise Unclassified (NaN included).
    """
    w = np.asarray(w, dtype=float)
    dust = np.asarray(cs2, dtype=float) <= CS2_DUST_MAX
    return np.select(
        [(np.abs(w + 1.0) <= W_BAND) & dust,
         (np.abs(w) <= W_BAND) & dust,
         np.abs(w - 1.0 / 3.0) <= W_BAND,
         (-1.0 + W_BAND < w) & (w < -W_BAND)],
        [RegimeLabel.COSMOLOGICAL_CONSTANT.value,
         RegimeLabel.DARK_MATTER_LIKE.value,
         RegimeLabel.RADIATION_LIKE.value,
         RegimeLabel.DARK_ENERGY_MIX.value],
        RegimeLabel.UNCLASSIFIED.value)

