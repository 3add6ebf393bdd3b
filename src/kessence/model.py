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
rule, `is_pole`, and every closed form returns (values, pole) from
`guarded_div`, with NaN in values where pole is True: both take the
broadcast shape of the inputs (numpy scalars for scalar inputs). The caller
decides whether a pole is fatal or a NAN cell. `guarded_div` takes the
denominator's two terms and holds it against the larger of their
magnitudes; where that scale overflowed, the value is NaN and not a pole,
and where only their sum overflows, it rescales them by a power of two.
The closed forms emit no numpy warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Pole guard: a denominator within 1e-12 of the magnitude of its own terms
# is treated as degenerate (these are exact poles of rational functions).
DEN_GUARD = 1e-12

# The closed forms are quiet: an overflow or a 0/0 shows as NaN, not as a
# numpy warning. One errstate serves them all; as a decorator it may nest.
_QUIET = np.errstate(all="ignore")


def is_pole(den, scale):
    """The pole rule: |den| <= DEN_GUARD * scale."""
    return abs(den) <= DEN_GUARD * scale


@_QUIET
def guarded_div(num, t1, t2):
    """(num / (t1 + t2), pole) under the pole rule `is_pole(den, scale)`,
    scale being the larger of |t1| and |t2|. A term that overflowed does not
    make its denominator vanish: where the scale is not finite the value is
    NaN and not a pole. Where the scale is finite but t1 + t2 overflows,
    num, t1 and t2 are first divided by the power of two 2^frexp(scale),
    which is exact, so the value is the quotient an unbounded exponent
    would give. NaN where pole is True; both take the inputs' broadcast shape
    (numpy scalars for scalar inputs)."""
    den, scale = t1 + t2, np.maximum(np.abs(t1), np.abs(t2))
    finite = scale < np.inf
    pole = finite & is_pole(den, scale)
    # 1, or 2^-frexp(scale) where finite terms sum past the largest float
    s = np.where(finite & np.isinf(den),
                 np.ldexp(1.0, -np.frexp(scale)[1]), 1.0)
    q = np.where(pole | ~finite, np.nan, np.divide(num * s, t1 * s + t2 * s))
    return q[()], np.broadcast_to(pole, q.shape)[()]


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


@dataclass(frozen=True)
class QuadraticPotential:
    """V(phi) = m2 * phi^2 (proportionality constant m2 > 0)."""

    m2: float

    def __post_init__(self):
        if not self.m2 > 0:
            raise ValueError("m2 must be > 0")

    def value(self, phi):
        return self.m2 * phi * phi

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


@_QUIET
def eos_w(model: KineticModel, X):
    """(w, pole): equation of state w = F / (2 X F_X - F); V cancels.

    At X = X0 the derivative term vanishes and w = -1 exactly. F itself
    crossing zero is a legitimate w = 0 point, not a singularity; only the
    denominator 2 X F_X - F is guarded (w NaN and pole True where it is ~0).
    """
    F = eval_F(model, X)
    t1 = 2.0 * X * eval_F_X(model, X)
    return guarded_div(F, t1, -F)


@_QUIET
def sound_speed(model: KineticModel, X):
    """(cs2, pole): perturbation sound speed cs2 = F_X / (F_X + 2 X F_XX).

    For the quadratic F this equals (X - X0)/(3 X - X0), so it vanishes at
    the extremum and has a pole at X = X0/3 (and is 0/0 when F2 = 0).
    Where F2 > 0 and X != X0 but F_X and 2 X F_XX both underflow to 0, the
    value is that reduced quotient, formed from X and X0.
    """
    F_X = eval_F_X(model, X)
    t2 = 2.0 * X * eval_F_XX(model, X)
    d = X - model.X0
    lost = (F_X == 0.0) & (t2 == 0.0) & (model.F2 > 0.0) & (d != 0.0)
    num = np.where(lost, d, F_X)
    return guarded_div(num, num, np.where(lost, 2.0 * X, t2))


# ---------------------------------------------------------------------------
# Closed forms at the perturbed kinetic state X = X0 + eps0
# ---------------------------------------------------------------------------

@_QUIET
def sound_speed_perturbed(model: KineticModel):
    """(cs2, pole): cs2 at X = X0 + eps0 in closed form, 1 / (3 + 2 X0/eps0).

    Algebraically identical to sound_speed(model, X0 + eps0). Its pole is
    eps0 = 0, where it returns (NaN, True).
    """
    ratio, pole = guarded_div(2.0 * model.X0, model.eps0, 0.0)
    return 1.0 / (3.0 + ratio), pole


@_QUIET
def w_perturbed_exact(model: KineticModel):
    """(w, pole): w at X = X0 + eps0 in closed form.

    Evaluates -1 / (1 - 4 (X0+eps0) eps0 F2 / F(X0+eps0)) with the
    denominator cleared, i.e. -F / (F - 4 (X0+eps0) F2 eps0), which is the
    same rational function as eos_w at the perturbed state and stays
    defined where F crosses zero.
    """
    e = model.eps0
    F = model.F0 + model.F2 * e * e
    t = 4.0 * (model.X0 + e) * model.F2 * e
    return guarded_div(-F, F, -t)


# ---------------------------------------------------------------------------
# Thin-wall limit approximations (kept distinct from the exact forms)
# ---------------------------------------------------------------------------

@_QUIET
def w_thinwall_approx(model: KineticModel):
    """(w, pole): simplified steep-wall estimate w = -1 / (1 - 4 X0 eps0 / F2).

    Drops the F0 contribution retained by `w_perturbed_exact`; the two
    disagree badly away from eps0 = 0 (e.g. X0 = F2 = 1e3, eps0 = 1e-2
    gives -1/0.96 here versus ~ -2.25e-5 exactly). Reported separately so
    the regime table can show both. Its pole is 4 X0 eps0 = F2.
    """
    t = 4.0 * model.X0 * model.eps0 / model.F2
    # -1 / (1 - t) as 1 / (t - 1): the same doubles, and no negated copy of t
    return guarded_div(1.0, t, -1.0)


@_QUIET
def cs2_thinwall_approx(model: KineticModel):
    """(cs2, pole): wall-limit sound speed 1 / (1 + 4 X0 (1 + X0/(2 eps0))).

    Strictly decreasing in X0: -> 1 as X0 -> 0+ (thick wall), -> 0 as
    X0 -> inf (thin wall). Not equivalent to the exact `sound_speed`.
    Its pole is eps0 = 0, where it returns (NaN, True).
    """
    # 2 eps0 as eps0 + eps0, whose terms stay finite for every finite eps0
    ratio, pole = guarded_div(model.X0, model.eps0, model.eps0)
    return 1.0 / (1.0 + 4.0 * model.X0 * (1.0 + ratio)), pole  # inf gives 0


# ---------------------------------------------------------------------------
# Dilution scaling solution
# ---------------------------------------------------------------------------

@_QUIET
def scaling_cs2_of_a(s: ScalingSolution, a, mode: str = "exact"):
    """Sound speed along the scaling solution.

    mode="exact" evaluates (X - X0)/(3 X - X0) at X = X0 (1 + decay), with
    decay = eps1 (a/a1)^-3, as decay/(2 + 3 decay): formed without X - X0, it
    keeps its relative precision however small decay is. NaN at its pole
    decay = -2/3. mode="first_order" evaluates decay/2, which has no pole;
    for |eps1| << 1 the two agree to O(eps1^2).
    """
    a = np.asarray(a, dtype=float)
    if not np.all(a > 0):
        raise ValueError("scale factor a must be > 0")
    decay = s.eps1 * np.power(a / s.a1, -3.0)  # a float a takes the array loop
    if mode == "first_order":
        return 0.5 * decay
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'first_order'")
    return guarded_div(decay, 2.0, 3.0 * decay)[0]


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

