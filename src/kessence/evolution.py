"""Homogeneous field evolution through a prescribed FRW background.

The second-order field equation for p = V(phi) F(X) in an expanding
background reads

    (F_X + 2 X F_XX) phidd + 3 H F_X phid + (2 X F_X - F) V'/V = 0,

with X = phid^2 / 2.  The expansion rate H(t) is externally prescribed
(de Sitter or power-law); nothing is fed back through a Friedmann
equation.

When V is constant the equation admits a first integral.  Multiplying
through by phid gives d/dt (X F_X^2) = -6 H X F_X^2, so

    Q = X F_X^2 a^6

is conserved exactly.  We exploit that structure twice: `invariant_Q`
exposes Q as a diagnostic, and `evolve_kinetic_only` integrates the
first-order equation for u = X - X0,

    du/dt = -6 H u (X0 + u) / (2 X0 + 3 u),

which tracks the exponentially decaying deviation with full relative
accuracy.  (Integrating phid directly and then forming u by subtraction
loses ~X0/u in relative precision, which destroys the Q diagnostic once
u has decayed a few orders of magnitude.)  `evolve_full` keeps the
(phi, phid) formulation so the two integrators make an independent
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np
from scipy.integrate import solve_ivp

from .errors import FitDomain, SingularMassMatrix, StepFailure
from .model import (
    KineticModel,
    PotentialSpec,
    eos_w,
    eval_F,
    eval_F_X,
    eval_F_XX,
    guarded_div,
    sound_speed,
)

__all__ = [
    "DeSitter",
    "PowerLaw",
    "BackgroundSpec",
    "FieldState",
    "StepControl",
    "Trajectory",
    "ScalingFit",
    "initial_state",
    "evolve_full",
    "evolve_kinetic_only",
    "invariant_Q",
    "fit_scaling",
    "scaling_slope",
    "slow_roll_metric",
]

# The ODE solver runs a decade tighter than the user-facing tolerance so
# that accumulated global error stays inside the advertised bounds.
_SOLVER_MARGIN = 10.0


@dataclass(frozen=True)
class DeSitter:
    """Constant expansion rate: a(t) = a_ref * exp(H (t - t_ref))."""

    H: float

    def __post_init__(self):
        if not self.H > 0.0:
            raise ValueError(f"DeSitter needs H > 0, got {self.H}")

    def hubble(self, t):
        return self.H + 0.0 * t

    def scale_ratio(self, t, t_ref):
        """a(t) / a(t_ref)."""
        return np.exp(self.H * (t - t_ref))


@dataclass(frozen=True)
class PowerLaw:
    """a(t) = (t/t0)^p with p > 0, valid for t > 0."""

    p: float
    t0: float = 1.0

    def __post_init__(self):
        if not self.p > 0.0:
            raise ValueError(f"PowerLaw needs p > 0, got {self.p}")
        if not self.t0 > 0.0:
            raise ValueError(f"PowerLaw needs t0 > 0, got {self.t0}")

    def hubble(self, t):
        return self.p / t

    def scale_ratio(self, t, t_ref):
        return (t / t_ref) ** self.p


BackgroundSpec = Union[DeSitter, PowerLaw]


@dataclass(frozen=True)
class FieldState:
    """Instantaneous homogeneous state (t, a, phi, phidot)."""

    t: float
    a: float
    phi: float
    phidot: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError(f"scale factor must be positive, got {self.a}")

    @property
    def X(self) -> float:
        return 0.5 * self.phidot * self.phidot


def initial_state(phi: float = 0.0, *, phidot: Optional[float] = None,
                  X: Optional[float] = None, t: float = 0.0,
                  a: float = 1.0) -> FieldState:
    """Build a FieldState from either phidot or X.

    Exactly one of `phidot` / `X` must be given.  When X is given the
    positive branch phidot = +sqrt(2 X) is chosen; the kinetic equation
    is invariant under (phi, phidot) -> (-phi, -phidot) so no generality
    is lost.
    """
    if (phidot is None) == (X is None):
        raise ValueError("give exactly one of phidot= or X=")
    if phidot is None:
        if X < 0.0:
            raise ValueError(f"X must be non-negative, got {X}")
        phidot = math.sqrt(2.0 * X)
    return FieldState(t=t, a=a, phi=phi, phidot=phidot)


@dataclass(frozen=True)
class StepControl:
    """Integration tolerances and output cadence."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    n_output: int = 201

    def __post_init__(self):
        if not self.rel_tol > 0.0 or not self.abs_tol > 0.0:
            raise ValueError("tolerances must be positive")
        if self.n_output < 2:
            raise ValueError(f"n_output must be >= 2, got {self.n_output}")


@dataclass(frozen=True)
class Trajectory:
    """Dense output of one integration run.

    All arrays share one length.  w and cs2 are NaN on any row where
    the corresponding denominator falls under the degeneracy guard;
    Q = X F_X^2 a^6 is always finite.
    """

    model: KineticModel
    t: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    phidot: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    cs2: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.t.size

    @classmethod
    def build(cls, model: KineticModel, t, a, phi, phidot,
              X=None) -> "Trajectory":
        """Assemble a trajectory, deriving X from phidot unless an exact
        X array is supplied (the kinetic-only integrator carries X - X0
        natively and must not round-trip it through phidot)."""
        t = np.asarray(t, dtype=float)
        a = np.asarray(a, dtype=float)
        phi = np.asarray(phi, dtype=float)
        phidot = np.asarray(phidot, dtype=float)
        if X is None:
            X = 0.5 * phidot * phidot
        else:
            X = np.asarray(X, dtype=float)

        w, _ = eos_w(model, X, masked=True)
        cs2, _ = sound_speed(model, X, masked=True)
        F_X = eval_F_X(model, X)
        Q = X * F_X * F_X * a ** 6
        return cls(model=model, t=t, a=a, phi=phi, phidot=phidot,
                   X=X, w=w, cs2=cs2, Q=Q)


def invariant_Q(model: KineticModel, state: FieldState) -> float:
    """First integral of the kinetic equation: X F_X^2 a^6.

    For the quadratic F this is X (2 F2 (X - X0))^2 a^6; it vanishes
    identically at X = X0 and is conserved along any constant-V run.
    """
    X = state.X
    F_X = eval_F_X(model, X)
    return X * F_X * F_X * state.a ** 6


def _mass_coefficient(model: KineticModel, X: float, t: float) -> float:
    """phidd coefficient F_X + 2 X F_XX, guarded against degeneracy."""
    F_X = eval_F_X(model, X)
    curv = 2.0 * X * eval_F_XX(model, X)
    coef = F_X + curv
    if guarded_div(1.0, coef, max(abs(F_X), abs(curv)))[1]:
        raise SingularMassMatrix(
            f"F_X + 2*X*F_XX vanished at t={t}, X={X}; "
            "the field acceleration is undetermined there")
    return coef


def _check_window(background: BackgroundSpec, init: FieldState,
                  t_end: float) -> None:
    if not t_end > init.t:
        raise ValueError(f"t_end={t_end} must exceed init.t={init.t}")
    if isinstance(background, PowerLaw) and init.t <= 0.0:
        raise ValueError(
            "PowerLaw background needs t > 0 over the whole window; "
            f"got init.t={init.t}")


def _run_solver(rhs, init: FieldState, t_end: float,
                control: StepControl) -> object:
    t_eval = np.linspace(init.t, t_end, control.n_output)
    sol = solve_ivp(
        rhs, (init.t, t_end), rhs.y0, method="DOP853",
        rtol=control.rel_tol / _SOLVER_MARGIN,
        atol=control.abs_tol / _SOLVER_MARGIN,
        t_eval=t_eval, dense_output=False)
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    return sol


def evolve_full(model: KineticModel, potential: PotentialSpec,
                background: BackgroundSpec, init: FieldState, t_end: float,
                control: StepControl = StepControl()) -> Trajectory:
    """Integrate the full second-order field equation in (phi, phidot).

    The potential enters only through its logarithmic slope V'/V; a
    constant potential therefore reduces this exactly to the kinetic
    equation.  The phidd coefficient is checked on every right-hand-side
    evaluation and SingularMassMatrix is raised if it degenerates.
    """
    _check_window(background, init, t_end)
    _mass_coefficient(model, init.X, init.t)

    def rhs(t, y):
        phi, phidot = y
        X = 0.5 * phidot * phidot
        coef = _mass_coefficient(model, X, t)
        F_X = eval_F_X(model, X)
        force = 3.0 * background.hubble(t) * F_X * phidot
        try:
            ratio = potential.log_slope(phi)
        except ZeroDivisionError:
            raise StepFailure(
                f"V'/V diverges at phi=0 (t={t}); the potential term is "
                "singular there") from None
        if ratio != 0.0:
            force += (2.0 * X * F_X - eval_F(model, X)) * ratio
        return (phidot, -force / coef)

    rhs.y0 = (init.phi, init.phidot)
    sol = _run_solver(rhs, init, t_end, control)
    a = init.a * background.scale_ratio(sol.t, init.t)
    return Trajectory.build(model, sol.t, a, sol.y[0], sol.y[1])


def evolve_kinetic_only(model: KineticModel, background: BackgroundSpec,
                        init: FieldState, t_end: float,
                        control: StepControl = StepControl()) -> Trajectory:
    """Integrate the constant-V field equation in (phi, u) with u = X - X0.

    Multiplying the kinetic equation by phid turns it into
    du/dt = -6 H u (X0 + u)/(2 X0 + 3 u), which resolves the decaying
    deviation u to full relative precision.  phid is reconstructed as
    sign(phidot(0)) * sqrt(2 (X0 + u)); the sign cannot change while
    X > 0.  The returned trajectory carries the native X = X0 + u so its
    Q column conserves to the integrator tolerance, not to the (much
    worse) precision of a phidot round trip.
    """
    _check_window(background, init, t_end)
    _mass_coefficient(model, init.X, init.t)

    X0 = model.X0
    sgn = math.copysign(1.0, init.phidot) if init.phidot != 0.0 else 0.0

    def rhs(t, y):
        u = y[1]
        X = X0 + u
        if X < 0.0:
            raise StepFailure(
                f"X = X0 + u went negative at t={t} (u={u}); the "
                "kinetic variable left its physical domain")
        _mass_coefficient(model, X, t)
        udot = -6.0 * background.hubble(t) * u * X / (2.0 * X0 + 3.0 * u)
        return (sgn * math.sqrt(2.0 * X), udot)

    rhs.y0 = (init.phi, init.X - X0)
    sol = _run_solver(rhs, init, t_end, control)
    a = init.a * background.scale_ratio(sol.t, init.t)
    X = X0 + sol.y[1]
    phidot = sgn * np.sqrt(np.maximum(2.0 * X, 0.0))
    return Trajectory.build(model, sol.t, a, sol.y[0], phidot, X=X)


class ScalingFit(NamedTuple):
    """Late-time fit X = X0 (1 + eps1 (a/a1)^-3) over the trajectory tail."""

    eps1: float
    a1: float
    max_residual: float


def fit_scaling(trajectory: Trajectory, tail_fraction: float = 0.5) -> ScalingFit:
    """Fit the scaling form to the tail of a trajectory.

    The slope is held fixed at -3; only the amplitude is free, so the
    least-squares solution is the mean of log(X - X0) + 3 log(a/a1) over
    the tail, with a1 anchored to the first tail sample.  (Only the
    combination eps1 * a1^3 is identified; fixing a1 this way makes the
    returned pair reproducible.)  max_residual is the worst relative
    deviation of X - X0 from the fitted curve.

    Raises FitDomain if any tail row has X <= X0, and ValueError if the
    tail holds fewer than 10 rows.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    n = len(trajectory)
    n_tail = int(round(tail_fraction * n))
    if n_tail < 10:
        raise ValueError(
            f"need at least 10 rows in the fit tail, got {n_tail} "
            f"(trajectory has {n} rows)")
    a = trajectory.a[n - n_tail:]
    dev = trajectory.X[n - n_tail:] - trajectory.model.X0
    if np.any(dev <= 0.0):
        raise FitDomain(
            "fit tail contains rows with X <= X0; the scaling form "
            "assumes a positive deviation")
    a1 = float(a[0])
    log_amp = float(np.mean(np.log(dev) + 3.0 * np.log(a / a1)))
    eps1 = math.exp(log_amp) / trajectory.model.X0
    fitted = trajectory.model.X0 * eps1 * (a / a1) ** -3.0
    max_residual = float(np.max(np.abs(dev / fitted - 1.0)))
    return ScalingFit(eps1=eps1, a1=a1, max_residual=max_residual)


def scaling_slope(trajectory: Trajectory, min_growth: float = 2.0) -> float:
    """Free log-log slope of (X - X0) against a, restricted to rows where
    a has grown by at least `min_growth` over a(0).  The dilution law
    predicts -3 once transients have cleared."""
    a0 = trajectory.a[0]
    mask = trajectory.a >= min_growth * a0
    dev = trajectory.X[mask] - trajectory.model.X0
    if dev.size < 2:
        raise FitDomain(
            f"fewer than 2 rows with a >= {min_growth} * a(0); "
            "integrate longer before asking for a slope")
    if np.any(dev <= 0.0):
        raise FitDomain("slope window contains rows with X <= X0")
    slope = np.polyfit(np.log(trajectory.a[mask]), np.log(dev), 1)[0]
    return float(slope)


def slow_roll_metric(potential: PotentialSpec, H: float, phi: float) -> float:
    """|V''(phi)| / H^2.  Values well under 1 indicate a flat stretch of
    potential relative to the expansion rate; the caller judges how
    small is small."""
    if not H > 0.0:
        raise ValueError(f"H must be positive, got {H}")
    return abs(potential.curvature(phi)) / (H * H)
