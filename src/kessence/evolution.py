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

is conserved exactly.  We exploit that structure twice: every
`Trajectory` carries Q as a diagnostic column, and `evolve_kinetic_only`
integrates the first-order equation for u = X - X0,

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
from typing import Optional, Union

import numpy as np
from scipy.integrate import solve_ivp

from .errors import MAX_ROWS, FitDomain, SingularMassMatrix, StepFailure
from .model import (
    KineticModel,
    PotentialSpec,
    ScalingSolution,
    eos_w,
    eval_F,
    eval_F_X,
    eval_F_XX,
    is_pole,
    sound_speed,
)

__all__ = [
    "DeSitter",
    "PowerLaw",
    "BackgroundSpec",
    "FieldState",
    "StepControl",
    "Trajectory",
    "initial_state",
    "evolve_full",
    "evolve_kinetic_only",
    "fit_scaling",
    "scaling_slope",
]

# The ODE solver runs a decade tighter than the user-facing tolerance so
# that accumulated global error stays inside the advertised bounds.
_SOLVER_MARGIN = 10.0

# The late-time window of the dilution checks: `fit_scaling` fits the last
# FIT_TAIL_FRACTION of the rows, `scaling_slope` the rows where a has grown
# by at least SLOPE_MIN_GROWTH over a(0).
FIT_TAIL_FRACTION = 0.5
SLOPE_MIN_GROWTH = 2.0


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
    """a(t) = a_start (t/t_start)^p, p > 0, t > 0; t0 affects no output."""

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
        if not math.isfinite(self.X):
            raise ValueError(
                f"X = phidot^2/2 must be finite, got phidot={self.phidot}")

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
        if not 2 <= self.n_output <= MAX_ROWS:
            raise ValueError(f"n_output must be >= 2 and at most the row cap "
                             f"MAX_ROWS={MAX_ROWS}, got {self.n_output}")


@dataclass(frozen=True)
class Trajectory:
    """Dense output of one integration run.

    All arrays share one length.  w and cs2 are NaN on any row where
    the corresponding denominator falls under the degeneracy guard.
    Q = X F_X^2 a^6 can overflow: a^6 alone does past a of about 2.4e51.
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
    def build(cls, model: KineticModel, t, a, phi, phidot, X) -> "Trajectory":
        """Assemble a trajectory, deriving w, cs2 and Q from X and a."""
        t, a, phi, phidot, X = (np.asarray(v, dtype=float)
                                for v in (t, a, phi, phidot, X))
        w, _ = eos_w(model, X)
        cs2, _ = sound_speed(model, X)
        F_X = eval_F_X(model, X)
        Q = X * F_X * F_X * a ** 6
        return cls(model=model, t=t, a=a, phi=phi, phidot=phidot,
                   X=X, w=w, cs2=cs2, Q=Q)


def _mass_coefficient(model: KineticModel, X: float, t: float) -> float:
    """phidd coefficient F_X + 2 X F_XX, guarded against overflow and
    degeneracy."""
    F_X = eval_F_X(model, X)
    curv = 2.0 * X * eval_F_XX(model, X)
    coef = F_X + curv
    if not math.isfinite(coef):
        raise SingularMassMatrix(
            f"F_X + 2*X*F_XX overflowed at t={t}, X={X}; "
            "the field acceleration is undetermined there")
    if is_pole(coef, max(abs(F_X), abs(curv))):
        raise SingularMassMatrix(
            f"F_X + 2*X*F_XX vanished at t={t}, X={X}; "
            "the field acceleration is undetermined there")
    return coef


def _check_window(background: BackgroundSpec, init: FieldState,
                  t_end: float, n_output: int) -> None:
    if not t_end > init.t:
        raise ValueError(f"t_end={t_end} must exceed init.t={init.t}")
    # The solver reports at these times and needs them strictly increasing.
    if not np.all(np.diff(np.linspace(init.t, t_end, n_output)) > 0.0):
        raise ValueError(
            f"the window [{init.t!r}, {t_end!r}] does not hold "
            f"n_output={n_output} strictly increasing float times")
    if isinstance(background, PowerLaw) and init.t <= 0.0:
        raise ValueError(
            "PowerLaw background needs t > 0 over the whole window; "
            f"got init.t={init.t}")
    # a(t_end) must be a float; float64 overflows to inf (a float power raises)
    with np.errstate(over="ignore"):
        a_end = init.a * background.scale_ratio(np.float64(t_end), init.t)
    if not np.isfinite(a_end):
        raise ValueError(f"a overflows the largest float before "
                         f"t_end={t_end!r} (a={init.a!r} at t={init.t!r})")


def _integrate(model: KineticModel, background: BackgroundSpec,
               init: FieldState, t_end: float, control: StepControl,
               rhs, y0) -> tuple:
    """Integrate `rhs` from `y0` at init.t to t_end, after the window and
    start-state checks; returns the report times, a(t) and the states."""
    _check_window(background, init, t_end, control.n_output)
    _mass_coefficient(model, init.X, init.t)
    with np.errstate(all="ignore"):  # a state that overflows fails below
        sol = solve_ivp(
            rhs, (init.t, t_end), y0, method="DOP853",
            rtol=control.rel_tol / _SOLVER_MARGIN,
            atol=control.abs_tol / _SOLVER_MARGIN,
            t_eval=np.linspace(init.t, t_end, control.n_output),
            dense_output=False)
    if not sol.success:
        raise StepFailure(f"integration failed: {sol.message}")
    t_bad = sol.t[~np.isfinite(sol.y).all(axis=0)]
    if t_bad.size:
        raise StepFailure(f"the field left the float range by t={t_bad[0]}")
    return sol.t, init.a * background.scale_ratio(sol.t, init.t), sol.y


def evolve_full(model: KineticModel, potential: PotentialSpec,
                background: BackgroundSpec, init: FieldState, t_end: float,
                control: StepControl = StepControl()) -> Trajectory:
    """Integrate the full second-order field equation in (phi, phidot).

    The potential enters only through its logarithmic slope V'/V; a
    constant potential therefore reduces this exactly to the kinetic
    equation.  The phidd coefficient is checked on every right-hand-side
    evaluation and SingularMassMatrix is raised if it degenerates.
    """
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

    t, a, (phi, phidot) = _integrate(model, background, init, t_end, control,
                                     rhs, (init.phi, init.phidot))
    return Trajectory.build(model, t, a, phi, phidot, 0.5 * phidot * phidot)


def evolve_kinetic_only(model: KineticModel, background: BackgroundSpec,
                        init: FieldState, t_end: float,
                        control: StepControl = StepControl()) -> Trajectory:
    """Integrate the constant-V field equation in (phi, u) with u = X - X0.

    Multiplying the kinetic equation by phid turns it into
    du/dt = -6 H u (X0 + u)/(2 X0 + 3 u), which resolves the decaying
    deviation u to full relative precision.  phid is reconstructed as
    sign(phidot(0)) * sqrt(2 (X0 + u)); the sign cannot change as long as
    X > 0.  The returned trajectory carries the native X = X0 + u so its
    Q column conserves to the integrator tolerance, not to the (much
    worse) precision of a phidot round trip.
    """
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

    t, a, (phi, u) = _integrate(model, background, init, t_end, control,
                                rhs, (init.phi, init.X - X0))
    X = X0 + u
    phidot = sgn * np.sqrt(np.maximum(2.0 * X, 0.0))
    return Trajectory.build(model, t, a, phi, phidot, X)


def fit_scaling(trajectory: Trajectory) -> tuple[ScalingSolution, float]:
    """Fit the scaling form X = X0 (1 + eps1 (a/a1)^-3) to the last
    FIT_TAIL_FRACTION of a trajectory; returns (law, max_residual), the
    law a ScalingSolution with the trajectory's X0.

    The slope is held fixed at -3; only the amplitude is free, so the
    least-squares solution is the mean of log(X - X0) + 3 log(a/a1) over
    the tail, with a1 anchored to the first tail sample.  (Only the
    combination eps1 * a1^3 is identified; fixing a1 this way makes the
    returned law reproducible.)  max_residual is the worst relative
    deviation of X - X0 from the fitted curve.

    Raises FitDomain if the tail holds fewer than 10 rows or any tail row
    has X <= X0.
    """
    n, X0 = len(trajectory), trajectory.model.X0
    n_tail = int(round(FIT_TAIL_FRACTION * n))
    if n_tail < 10:
        raise FitDomain(
            f"need at least 10 rows in the fit tail, got {n_tail} "
            f"(trajectory has {n} rows)")
    a = trajectory.a[n - n_tail:]
    dev = trajectory.X[n - n_tail:] - X0
    if np.any(dev <= 0.0):
        raise FitDomain(
            "fit tail contains rows with X <= X0; the scaling form "
            "assumes a positive deviation")
    a1 = float(a[0])
    log_amp = float(np.mean(np.log(dev) + 3.0 * np.log(a / a1)))
    law = ScalingSolution(X0=X0, eps1=math.exp(log_amp) / X0, a1=a1)
    fitted = X0 * law.eps1 * (a / a1) ** -3.0
    return law, float(np.max(np.abs(dev / fitted - 1.0)))


def scaling_slope(trajectory: Trajectory) -> float:
    """Free log-log slope of (X - X0) against a, restricted to rows where
    a has grown by at least SLOPE_MIN_GROWTH over a(0).  The dilution law
    predicts -3 once transients have cleared."""
    a0 = trajectory.a[0]
    mask = trajectory.a >= SLOPE_MIN_GROWTH * a0
    dev = trajectory.X[mask] - trajectory.model.X0
    if dev.size < 2:
        raise FitDomain(
            f"fewer than 2 rows with a >= {SLOPE_MIN_GROWTH} * a(0); "
            "integrate longer before asking for a slope")
    if np.any(dev <= 0.0):
        raise FitDomain("slope window contains rows with X <= X0")
    slope = np.polyfit(np.log(trajectory.a[mask]), np.log(dev), 1)[0]
    return float(slope)
