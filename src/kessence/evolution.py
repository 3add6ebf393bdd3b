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

is conserved exactly.  For the quadratic F, with u = X - X0, that is

    u^2 (X0 + u) a^6 = const       (Scherrer 2004, astro-ph/0402316).

Every `Trajectory` carries Q, formed from its X column, and the solver's u;
`Trajectory.build` refuses (StepFailure) the first row where phi,
phidot, X or Q is not finite.  `evolve_kinetic_only` integrates no ODE: it
takes ln a from the background in closed form and solves the first
integral for u on the branch of u(0) (u > 0, -2 X0/3 < u < 0, or
0 < X < X0/3), which resolves the decaying deviation to full relative
precision however far it has decayed; phi is a quadrature of sqrt(2 X).
An integrator carrying phid and forming u by subtraction loses ~X0/u in
relative precision, so `evolve_full` hands a constant V to
`evolve_kinetic_only` and integrates the second-order equation in
(phi, phid) with scipy's DOP853, which is imported on first use, only for
a varying V.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebpts1, chebvander

from .errors import MAX_ROWS, FitDomain, SingularMassMatrix, StepFailure
from .model import (
    ConstantPotential,
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

# The kinetic-only phi quadrature: panels at most _PANEL_WIDTH wide in ln a,
# each interpolated at the _CHEB_NODES (first-kind Chebyshev points on
# [-1, 1]); _CHEB_INTEGRAL maps the node values to the Chebyshev
# coefficients of the antiderivative that is 0 at -1.
_PANEL_WIDTH = 0.25
_CHEB_NODES = chebpts1(16)
_CHEB_INTEGRAL = chebint(np.linalg.inv(chebvander(_CHEB_NODES, 15)), lbnd=-1)
# Newton on the first integral stops once no step exceeds _NEWTON_TOL times
# the scale of its terms, or after _NEWTON_MAX steps.
_NEWTON_TOL = 1e-13
_NEWTON_MAX = 100


def __getattr__(name):
    # scipy.integrate is most of the package's import time and memory and
    # only evolve_full integrates, so solve_ivp is imported on first use.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        globals()["solve_ivp"] = solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DeSitter:
    """Constant expansion rate: a(t) = a_ref * exp(H (t - t_ref))."""

    H: float

    def __post_init__(self):
        if not self.H > 0.0:
            raise ValueError(f"DeSitter needs H > 0, got {self.H}")

    def hubble(self, t):
        return self.H + 0.0 * t

    def log_scale_ratio(self, t, t_ref):
        """ln(a(t) / a(t_ref))."""
        return self.H * (t - t_ref)

    def log_scale_time(self, log_ratio, t_ref):
        """The time t at which ln(a(t) / a(t_ref)) = log_ratio."""
        return t_ref + log_ratio / self.H

    def scale_ratio(self, t, t_ref):
        """a(t) / a(t_ref)."""
        return np.exp(self.log_scale_ratio(t, t_ref))


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

    def log_scale_ratio(self, t, t_ref):
        return self.p * np.log(t / t_ref)

    def log_scale_time(self, log_ratio, t_ref):
        return t_ref * np.exp(log_ratio / self.p)

    def scale_ratio(self, t, t_ref):
        return (t / t_ref) ** self.p


BackgroundSpec = Union[DeSitter, PowerLaw]


@dataclass(frozen=True)
class FieldState:
    """Instantaneous homogeneous state (t, a, phi, phidot, X).  Both phidot
    and X are held, as neither gives the other back in floats: X = 1000.0
    returns as 1000.0000000000001, a subnormal X loses bits of phidot."""

    t: float
    a: float
    phi: float
    phidot: float
    X: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError(f"scale factor must be positive, got {self.a}")
        if not (math.isfinite(self.X) and math.isfinite(self.phidot)):
            raise ValueError(
                f"X = phidot^2/2 must be finite, got phidot={self.phidot}")


def initial_state(phi: float = 0.0, *, phidot: Optional[float] = None,
                  X: Optional[float] = None, t: float = 0.0,
                  a: float = 1.0) -> FieldState:
    """Build a FieldState from either phidot or X, keeping the one given.

    Exactly one of `phidot` / `X` must be given; the other is derived from
    it.  When X is given the positive branch phidot = +sqrt(2 X) is chosen;
    the kinetic equation is invariant under (phi, phidot) -> (-phi, -phidot)
    so no generality is lost.
    """
    if (phidot is None) == (X is None):
        raise ValueError("give exactly one of phidot= or X=")
    if phidot is None:
        if X < 0.0:
            raise ValueError(f"X must be non-negative, got {X}")
        phidot = math.sqrt(2.0 * X)
    return FieldState(t=t, a=a, phi=phi, phidot=phidot,
                      X=0.5 * phidot * phidot if X is None else X)


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

    All arrays share one length.  u = X - X0 is the deviation the solver
    formed, with the digits that X rounds away.  w and cs2 are NaN on any row
    where the corresponding denominator falls under the degeneracy guard.
    `build` refuses a row where phi, phidot, X or Q = X F_X^2 a^6 is not
    finite (a^6 alone overflows past a of about 2.4e51).
    """

    model: KineticModel
    t: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    phidot: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    cs2: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.t.size

    @classmethod
    def build(cls, model: KineticModel, t, a, phi, phidot, X,
              u) -> "Trajectory":
        """Assemble a trajectory, deriving w, cs2 and Q from X and a."""
        t, a, phi, phidot, X, u = (np.asarray(v, dtype=float)
                                   for v in (t, a, phi, phidot, X, u))
        with np.errstate(all="ignore"):  # a column that overflows fails below
            w, _ = eos_w(model, X)
            cs2, _ = sound_speed(model, X)
            F_X = eval_F_X(model, X)
            Q = X * F_X * F_X * a ** 6
        finite = np.array([np.isfinite(c) for c in (phi, phidot, X, Q)])
        if not finite.all():
            row, column = np.argwhere(~finite.T)[0]
            raise StepFailure(f"{('phi', 'phidot', 'X', 'Q')[column]} left "
                              f"the float range by t={t[row]}")
        return cls(model=model, t=t, a=a, phi=phi, phidot=phidot,
                   X=X, u=u, w=w, cs2=cs2, Q=Q)

    def q_drift(self) -> tuple[float, bool]:
        """(drift, relative): max |Q/Q(0) - 1| with relative True where
        Q(0) != 0 (inf where a row's ratio to a subnormal Q(0) overflows),
        else max |Q| with relative False."""
        Q0 = self.Q[0]
        if Q0 == 0.0:
            return float(np.max(np.abs(self.Q))), False
        with np.errstate(over="ignore"):
            return float(np.max(np.abs(self.Q / Q0 - 1.0))), True


def _mass_coefficient(model: KineticModel, X: float, t: float) -> tuple:
    """(coef, F_X): the phidd coefficient F_X + 2 X F_XX, guarded against
    overflow and degeneracy, and the F_X it was formed from."""
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
    return coef, F_X


def _check_window(background: BackgroundSpec, init: FieldState,
                  t_end: float, n_output: int) -> tuple:
    """(t, a) at the n_output report times from init.t to t_end; ValueError
    if the times do not increase strictly or a(t_end) is not a float."""
    if not t_end > init.t:
        raise ValueError(f"t_end={t_end} must exceed init.t={init.t}")
    with np.errstate(all="ignore"):  # a window that overflows fails below
        t = np.linspace(init.t, t_end, n_output)
        if not np.all(np.diff(t) > 0.0):
            raise ValueError(
                f"the window [{init.t!r}, {t_end!r}] does not hold "
                f"n_output={n_output} strictly increasing float times")
        if isinstance(background, PowerLaw) and init.t <= 0.0:
            raise ValueError(
                "PowerLaw background needs t > 0 over the whole window; "
                f"got init.t={init.t}")
        a = init.a * background.scale_ratio(t, init.t)
    if not np.isfinite(a[-1]):
        raise ValueError(f"a overflows the largest float before "
                         f"t_end={t_end!r} (a={init.a!r} at t={init.t!r})")
    return t, a


def evolve_full(model: KineticModel, potential: PotentialSpec,
                background: BackgroundSpec, init: FieldState, t_end: float,
                control: StepControl = StepControl()) -> Trajectory:
    """Evolve the full second-order field equation.

    A constant V (V'/V = 0) reduces it to the kinetic equation, which
    `evolve_kinetic_only` solves from its first integral; a varying V is
    integrated in (phi, phidot) with DOP853.  Each right-hand side raises
    StepFailure on a state that is not finite, and SingularMassMatrix on a
    phidd coefficient that degenerates or is below the normal float range.
    """
    if isinstance(potential, ConstantPotential):
        return evolve_kinetic_only(model, background, init, t_end, control)

    def rhs(t, y):
        # On Python floats, which run faster than numpy scalars. Their `/`
        # raises on a zero divisor, which none meets: |coef| is normal, a
        # PowerLaw's t >= init.t > 0, and phi = 0 is caught below.
        t, (phi, phidot) = float(t), y.tolist()
        X = 0.5 * phidot * phidot
        if not (math.isfinite(phi) and math.isfinite(X)):
            name = ("phi" if not math.isfinite(phi) else
                    "phidot" if not math.isfinite(phidot) else "X")
            raise StepFailure(f"{name} left the float range by t={t}")
        coef, F_X = _mass_coefficient(model, X, t)
        if abs(coef) < sys.float_info.min:
            raise SingularMassMatrix(
                f"F_X + 2*X*F_XX = {coef} at t={t}, X={X} is below the "
                "normal float range; the field acceleration has lost its "
                "precision there")
        try:
            ratio = potential.log_slope(phi)
        except ZeroDivisionError:
            raise StepFailure(
                f"V'/V diverges at phi=0 (t={t}); the potential term is "
                "singular there") from None
        force = (3.0 * background.hubble(t) * F_X * phidot
                 + (2.0 * X * F_X - eval_F(model, X)) * ratio)
        return (phidot, -force / coef)

    t, a = _check_window(background, init, t_end, control.n_output)
    _mass_coefficient(model, init.X, init.t)
    with np.errstate(all="ignore"):  # a state that overflows fails in build
        # By module attribute, so that the lazy import above serves it
        sol = sys.modules[__name__].solve_ivp(
            rhs, (init.t, t_end), (init.phi, init.phidot), method="DOP853",
            rtol=control.rel_tol / _SOLVER_MARGIN,
            atol=control.abs_tol / _SOLVER_MARGIN, t_eval=t,
            dense_output=False)
        if not sol.success:
            raise StepFailure(f"integration failed: {sol.message}")
        phi, phidot = sol.y
        X = 0.5 * phidot * phidot
        X[0] = init.X
        return Trajectory.build(model, t, a, phi, phidot, X, X - model.X0)


def _first_integral(X0: float, X_start: float, log_growth):
    """(u, X, sqrt(2 X)) with u = X - X0 on the branch of the start state on
    which u^2 (X0 + u) a^6 keeps its start value; log_growth is ln(a/a_start).

    u^2 (X0 + u) is monotone on each branch: u > 0, -2 X0/3 < u < 0 and
    0 < X < X0/3.  With e = |u| (e = X on the last branch) it reads
    alpha v + beta ln(X0 + sigma e) = K in v = ln e.  The left side is
    increasing in v, convex on the first branch and concave on the others,
    so Newton closes on the root from one side without overshooting when it
    starts there: from the upper bounds (K - ln X0)/2 and K/3 on the first
    branch, and from the lower bound (K - beta ln X0)/alpha on the others.
    u = 0 and X = 0 are equilibria and come out exact.  Where X on the last
    branch is below the normal range, sqrt(2 X) is formed from v = ln X.
    """
    L = np.asarray(log_growth, dtype=float)
    u_start = X_start - X0
    if u_start == 0.0 or X_start == 0.0:
        return (np.full(L.shape, u_start), np.full(L.shape, X_start),
                np.full(L.shape, math.sqrt(2.0 * X_start)))
    low = 3.0 * X_start < X0  # the branch 0 < X < X0/3, solved in ln X
    if low:
        alpha, beta, sigma, e_start = 1.0, 2.0, -1.0, X_start
    else:
        alpha, beta, sigma = 2.0, 1.0, math.copysign(1.0, u_start)
        e_start = abs(u_start)
    K = (alpha * math.log(e_start) + beta * math.log(X0 + sigma * e_start)
         - 6.0 * L)
    v = (K - beta * math.log(X0)) / alpha
    if sigma > 0.0:
        v = np.minimum(v, K / 3.0)
    tol = _NEWTON_TOL * (1.0 + np.abs(K) + np.abs(v))
    for _ in range(_NEWTON_MAX):
        e = np.exp(v)
        rest = X0 + sigma * e
        dv = ((alpha * v + beta * np.log(rest) - K)
              / (alpha + beta * sigma * e / rest))
        v = v - dv
        if not np.any(np.abs(dv) > tol):
            break
    e = np.exp(v)
    if low:
        return e - X0, e, np.where(e < sys.float_info.min, np.exp(
            0.5 * (v + math.log(2.0))), np.sqrt(2.0 * e))
    X = X0 + sigma * e
    return sigma * e, X, np.sqrt(2.0 * X)


def _branch_point_distance(X0: float, X_start: float) -> float:
    """How far back in ln a from the start u(ln a) has its branch point,
    where X passes X0/3 and u^2 (X0 + u) peaks at 4 X0^3/27; inf on the
    branch u > 0, which holds none, and where X/X0 underflows.  With
    r = X/X0 it is ln(1 + (r - 1/3)^2 (4/3 - r) / (r (1 - r)^2)) / 6."""
    r = X_start / X0
    if not 0.0 < r < 1.0:
        return math.inf
    return math.log1p((r - 1.0 / 3.0) ** 2 * (4.0 / 3.0 - r)
                      / (r * (1.0 - r) ** 2)) / 6.0


def _panel_edges(background: BackgroundSpec, t0: float, t_end: float,
                 reach: float) -> np.ndarray:
    """Quadrature panel edges from t0 to t_end.

    Panels are at most _PANEL_WIDTH wide in ln a (for a power law with
    p < 1, in ln t, on which the integrand's time scale then rests).  Near
    a branch point `reach` back in ln a, each is half as wide as its
    distance from the branch point, so each panel's interpolant converges
    as fast as on the smooth stretches."""
    scale = min(background.p, 1.0) if isinstance(background, PowerLaw) else 1.0
    width = _PANEL_WIDTH * scale
    L_end = float(background.log_scale_ratio(t_end, t0))
    # Graded edges reach (1.5^j - 1) up to the first step as wide as
    # `width`, then even steps to L_end.
    n_graded = (0 if reach >= 2.0 * width else
                math.ceil(math.log(2.0 * width / reach) / math.log(1.5)))
    first = reach * (1.5 ** n_graded - 1.0) if n_graded else 0.0
    # Counted in units of scale, so that a tiny p cannot underflow the width
    n_even = max(1, math.ceil((L_end - first) / scale / _PANEL_WIDTH))
    inner = np.concatenate((
        reach * (1.5 ** np.arange(1, n_graded + 1) - 1.0),
        np.linspace(first, L_end, n_even + 1)[1:-1]))
    L = np.concatenate(([0.0], inner[inner < L_end], [L_end]))
    edges = np.minimum(background.log_scale_time(L, t0), t_end)
    edges[0], edges[-1] = t0, t_end
    return np.unique(edges)  # rounding may have merged edges


def _kinetic_columns(X0: float, X_start: float, background: BackgroundSpec,
                     t: np.ndarray) -> tuple:
    """u = X - X0, X and sqrt(2 X) at the times t, and the field's path
    length: the integral of sqrt(2 X) from t[0] to each t.

    The path is integrated on the panels of `_panel_edges`, each by the
    antiderivative of its 16-node Chebyshev interpolant, evaluated on the
    panel's own (contiguous) rows of t.  sqrt(2 X) is integrated as it
    is: split as sqrt(2 X0) + 2 u/(sqrt(2 X) + sqrt(2 X0)), its two terms
    cancel on the branch X < X0/3.  At rest (X = 0) the path is 0.
    """
    t0, n = t[0], t.size
    edges = _panel_edges(background, t0, t[-1],
                         _branch_point_distance(X0, X_start))
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * _CHEB_NODES
    u, X, speed = _first_integral(X0, X_start, background.log_scale_ratio(
        np.concatenate((t, nodes.ravel())), t0))
    coef = speed[n:].reshape(nodes.shape) @ _CHEB_INTEGRAL.T * half[:, None]
    # Each panel's antiderivative on its rows, by Clenshaw's recurrence,
    # after the integrals of the panels before it: every T_k(1) is 1, so a
    # panel's integral is the sum of its coefficients.
    rows = np.diff(np.concatenate(
        ([0], np.searchsorted(t, edges[1:-1]), [n])))
    before = np.concatenate(([0.0], np.cumsum(coef.sum(axis=1)[:-1])))
    h = half.repeat(rows)
    x = (t - edges[:-1].repeat(rows) - h) / h
    c = coef.T.repeat(rows, axis=1)
    x2, b1, b2 = 2.0 * x, 0.0, 0.0
    for k in range(c.shape[0] - 1, 0, -1):
        b1, b2 = c[k] + x2 * b1 - b2, b1
    path = before.repeat(rows) + (c[0] + x * b1 - b2)
    return u[:n], X[:n], speed[:n], path


def evolve_kinetic_only(model: KineticModel, background: BackgroundSpec,
                        init: FieldState, t_end: float,
                        control: StepControl = StepControl()) -> Trajectory:
    """Evolve the constant-V field equation from its first integral.

    u = X - X0 solves u^2 (X0 + u) a^6 = const on the branch of u(0), with
    ln a in closed form, so no ODE is integrated and of `control` only
    n_output is used.  phi is phi(0) plus sign(phidot(0)) times the path
    length, the integral of sqrt(2 X) (see `_kinetic_columns`).  The first
    row is the start state.
    """
    t, a = _check_window(background, init, t_end, control.n_output)
    _mass_coefficient(model, init.X, init.t)
    with np.errstate(all="ignore"):  # a column that overflows fails in build
        u, X, speed, path = _kinetic_columns(model.X0, init.X, background, t)
        phi = init.phi + math.copysign(1.0, init.phidot) * path
        X[0], u[0] = init.X, init.X - model.X0
        speed[0], phi[0] = abs(init.phidot), init.phi
        return Trajectory.build(model, t, a, phi,
                                np.copysign(speed, init.phidot), X, u)


def _decaying(u: np.ndarray, X0: float, window: str) -> np.ndarray:
    """|u| over a window on one branch that approaches X0, else FitDomain."""
    if not (np.all(u > 0.0) or np.all((u < 0.0) & (u > -2.0 * X0 / 3.0))):
        raise FitDomain(f"{window} is not on one branch that approaches X0 "
                        "(u > 0 or -2 X0/3 < u < 0 on every row)")
    return np.abs(u)


def fit_scaling(trajectory: Trajectory) -> tuple[ScalingSolution, float]:
    """Fit the scaling form X = X0 (1 + eps1 (a/a1)^-3) to the last
    FIT_TAIL_FRACTION of a trajectory; returns (law, max_residual), the
    law a ScalingSolution with the trajectory's X0.

    The slope is held fixed at -3; only the amplitude is free, so the
    least-squares solution is the mean of log|u| + 3 log(a/a1) over the
    tail, with a1 anchored to the first tail sample and u's sign carried
    into eps1.  (Only the combination eps1 * a1^3 is identified; fixing a1
    this way makes the returned law reproducible.)  max_residual is the
    worst relative deviation of the solver's u from the fitted curve.

    Raises FitDomain if the tail holds fewer than 10 rows or is not on one
    branch that approaches X0 (see `_decaying`).
    """
    n, X0 = len(trajectory), trajectory.model.X0
    n_tail = int(round(FIT_TAIL_FRACTION * n))
    if n_tail < 10:
        raise FitDomain(
            f"need at least 10 rows in the fit tail, got {n_tail} "
            f"(trajectory has {n} rows)")
    a, u = trajectory.a[n - n_tail:], trajectory.u[n - n_tail:]
    dev = _decaying(u, X0, "fit tail")
    a1 = float(a[0])
    log_amp = float(np.mean(np.log(dev) + 3.0 * np.log(a / a1)))
    eps1 = math.copysign(math.exp(log_amp) / X0, u[0])
    law = ScalingSolution(X0=X0, eps1=eps1, a1=a1)
    fitted = X0 * eps1 * (a / a1) ** -3.0
    return law, float(np.max(np.abs(u / fitted - 1.0)))


def scaling_slope(trajectory: Trajectory) -> float:
    """Free log-log slope of |u| against a over the rows where a has grown
    by at least SLOPE_MIN_GROWTH over a(0), which `_decaying` admits.  The
    dilution law predicts -3 once transients have cleared."""
    mask = trajectory.a >= SLOPE_MIN_GROWTH * trajectory.a[0]
    if np.count_nonzero(mask) < 2:
        raise FitDomain(
            f"fewer than 2 rows with a >= {SLOPE_MIN_GROWTH} * a(0); "
            "integrate longer before asking for a slope")
    dev = _decaying(trajectory.u[mask], trajectory.model.X0, "slope window")
    a = trajectory.a[mask]
    if np.all(a == a[0]):  # a subnormal a is coarse enough for that
        raise FitDomain("a takes one value over the slope window")
    return float(np.polyfit(np.log(a), np.log(dev), 1)[0])
