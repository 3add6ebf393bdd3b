"""Tests for background evolution: integrators, invariant, scaling fits."""

import math
import os
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from kessence import evolution
from kessence.config import load_config
from kessence.errors import FitDomain, SingularMassMatrix, StepFailure
from kessence.evolution import (
    _first_integral,
    DeSitter,
    FieldState,
    PowerLaw,
    StepControl,
    Trajectory,
    evolve_full,
    evolve_kinetic_only,
    fit_scaling,
    initial_state,
    scaling_slope,
)
from kessence.model import (
    ConstantPotential,
    KineticModel,
    QuadraticPotential,
    ScalingSolution,
    eval_F,
    eval_F_X,
    eval_F_XX,
    scaling_cs2_of_a,
)

REF = KineticModel(F2=1e3, X0=1e3, eps0=1e-2, F0=-1.0)
BG = DeSitter(H=1.0)

_f = dict(allow_nan=False, allow_infinity=False)


def _reference_run(X_start=1.05e3, t_end=3.0, control=StepControl()):
    return evolve_kinetic_only(REF, BG, initial_state(X=X_start), t_end,
                               control)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_background_validation():
    with pytest.raises(ValueError):
        DeSitter(H=0.0)
    with pytest.raises(ValueError):
        PowerLaw(p=-1.0)
    with pytest.raises(ValueError):
        PowerLaw(p=0.5, t0=0.0)


def test_desitter_scale_ratio():
    bg = DeSitter(H=2.0)
    assert bg.hubble(17.3) == 2.0
    assert bg.scale_ratio(1.0, 0.0) == pytest.approx(math.exp(2.0), rel=1e-15)


def test_powerlaw_scale_ratio():
    bg = PowerLaw(p=0.5, t0=1.0)
    assert bg.hubble(4.0) == 0.125
    assert bg.scale_ratio(9.0, 1.0) == 3.0
    assert bg.scale_ratio(4.0, 1.0) == 2.0


def test_field_state():
    s = FieldState(t=1.0, a=2.0, phi=0.5, phidot=3.0, X=4.5)
    assert (s.phidot, s.X) == (3.0, 4.5)
    with pytest.raises(ValueError):
        FieldState(t=0.0, a=0.0, phi=0.0, phidot=0.0, X=0.0)
    with pytest.raises(ValueError):
        FieldState(t=0.0, a=-1.0, phi=0.0, phidot=0.0, X=0.0)
    # X = phidot^2 / 2 overflows: no integrator can start from it
    with pytest.raises(ValueError, match="must be finite"):
        FieldState(t=0.0, a=1.0, phi=0.0, phidot=1e200, X=math.inf)
    with pytest.raises(ValueError, match="must be finite"):
        FieldState(t=0.0, a=1.0, phi=0.0, phidot=math.inf, X=1e300)
    with pytest.raises(ValueError):
        initial_state(phidot=1e200)
    with pytest.raises(ValueError):
        initial_state(X=1e308)


def test_initial_state():
    s = initial_state(X=800.0)
    assert s.phidot == 40.0 and s.t == 0.0 and s.a == 1.0
    s2 = initial_state(phidot=-3.0, phi=1.0, t=2.0, a=5.0)
    assert (s2.phi, s2.t, s2.a, s2.phidot) == (1.0, 2.0, 5.0, -3.0)
    with pytest.raises(ValueError):
        initial_state(X=1.0, phidot=1.0)
    with pytest.raises(ValueError):
        initial_state()
    with pytest.raises(ValueError):
        initial_state(X=-1.0)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        StepControl(abs_tol=-1e-9)
    with pytest.raises(ValueError):
        StepControl(n_output=1)


def test_window_validation():
    with pytest.raises(ValueError):
        evolve_kinetic_only(REF, BG, initial_state(X=1.05e3, t=2.0), 1.0)
    with pytest.raises(ValueError):
        evolve_kinetic_only(REF, PowerLaw(p=0.5), initial_state(X=1.05e3),
                            3.0)
    # 201 distinct output times do not fit between 1 and a float 5 ulp above
    with pytest.raises(ValueError, match="strictly increasing"):
        evolve_kinetic_only(REF, BG, initial_state(X=1.05e3, t=1.0),
                            1.000000000000001)
    # a(t_end) past the largest float: exp on float64, and a power that
    # raises OverflowError on Python floats
    with pytest.raises(ValueError, match="overflows the largest float"):
        evolve_kinetic_only(REF, BG, initial_state(X=1.05e3), 1e4)
    with pytest.raises(ValueError, match="overflows the largest float"):
        evolve_kinetic_only(REF, PowerLaw(p=1e6),
                            initial_state(X=1.05e3, t=1.0), 3.0)


# ---------------------------------------------------------------------------
# degeneracy guards
# ---------------------------------------------------------------------------

def test_flat_kinetic_function_rejected():
    m = KineticModel(F2=0.0, X0=1.0)
    with pytest.raises(SingularMassMatrix):
        evolve_kinetic_only(m, BG, initial_state(X=2.0), 1.0)
    with pytest.raises(SingularMassMatrix):
        evolve_full(m, QuadraticPotential(m2=0.1), BG,
                    initial_state(phi=1.0, X=2.0), 1.0)


def test_singular_start_rejected():
    # X = X0/3 zeroes the phidd coefficient F_X + 2 X F_XX
    m = KineticModel(F2=10.0, X0=3.0)
    with pytest.raises(SingularMassMatrix):
        evolve_kinetic_only(m, BG, initial_state(X=1.0), 1.0)


def test_divergent_log_slope_is_step_failure():
    m = KineticModel(F2=2.0, X0=1.0)
    with pytest.raises(StepFailure):
        evolve_full(m, QuadraticPotential(m2=0.1), BG,
                    initial_state(phi=0.0, X=2.0), 1.0)


def test_field_leaving_the_float_range_is_step_failure():
    # a(1e308) = 1e154 passes the window check; phi ~ phidot t does not fit
    with pytest.raises(StepFailure, match=r"float range by t=1e\+308$"):
        evolve_kinetic_only(KineticModel(F2=1e3, X0=1e3), PowerLaw(p=0.5),
                            initial_state(X=1050.0, t=1.0), 1e308,
                            StepControl(n_output=2))


# ---------------------------------------------------------------------------
# exact stationary solutions
# ---------------------------------------------------------------------------

def test_equilibrium_is_exact():
    # X0 = 800 and phidot = 40 are both exactly representable, and
    # X(0) = 800.0 lands on the fixed point u = 0 of the reduced equation,
    # so every output row sits at the extremum bit for bit.
    m = KineticModel(F2=1e3, X0=800.0)
    traj = evolve_kinetic_only(m, BG, initial_state(phidot=40.0), 2.0)
    assert np.all(traj.X == 800.0)
    assert np.all(traj.w == -1.0)
    assert np.all(traj.cs2 == 0.0)
    assert np.all(traj.Q == 0.0)
    assert np.allclose(traj.phi, 40.0 * traj.t, rtol=1e-12, atol=1e-12)


def test_rest_state_stays_at_rest():
    m = KineticModel(F2=1e3, X0=800.0)
    init = initial_state(phidot=0.0, phi=5.0)
    for traj in (evolve_kinetic_only(m, BG, init, 2.0),
                 evolve_full(m, ConstantPotential(V0=1.0), BG, init, 2.0)):
        assert np.all(traj.phidot == 0.0)
        assert np.all(traj.phi == 5.0)
        assert np.all(traj.X == 0.0)
    # at X = 0 the equation of state is still -1 and cs2 = 1
    traj = evolve_kinetic_only(m, BG, init, 2.0)
    assert np.all(traj.w == -1.0)
    assert np.all(traj.cs2 == 1.0)


def test_rest_state_rolls_when_potential_tilts():
    # phidot = 0 must not freeze the field when V'(phi) != 0
    m = KineticModel(F2=2.0, X0=1.0)
    traj = evolve_full(m, QuadraticPotential(m2=0.1), BG,
                       initial_state(phi=5.0, phidot=0.0), 0.5)
    assert abs(traj.phidot[-1]) > 1e-3


# ---------------------------------------------------------------------------
# conservation, reduction, attractor
# ---------------------------------------------------------------------------

def test_invariant_conserved_to_tolerance():
    control = StepControl()
    traj = _reference_run(control=control)
    drift = np.max(np.abs(traj.Q / traj.Q[0] - 1.0))
    assert drift <= 100.0 * control.rel_tol


def test_invariant_conserved_powerlaw():
    control = StepControl()
    traj = evolve_kinetic_only(REF, PowerLaw(p=0.5),
                               initial_state(X=1.05e3, t=1.0), 9.0, control)
    assert traj.a[-1] == pytest.approx(3.0, rel=1e-14)
    drift = np.max(np.abs(traj.Q / traj.Q[0] - 1.0))
    assert drift <= 100.0 * control.rel_tol


# One start on each branch of the first integral: u > 0, -2 X0/3 < u < 0,
# 0 < X < X0/3 (near its branch point at X0/3, and far below it).
BRANCH_STARTS = [1.05e3, 7e2, 2e2, 1e-3]
BACKGROUNDS = [(BG, 0.0), (PowerLaw(p=0.5), 1.0)]


def test_full_reduces_to_kinetic_for_constant_potential(monkeypatch):
    # A constant V is the first integral's case: evolve_full returns the
    # kinetic-only columns bit for bit and integrates no ODE.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ivp called under a constant V")

    monkeypatch.setattr(evolution, "solve_ivp", no_solve, raising=False)
    control = StepControl()
    columns = ("t", "a", "phi", "phidot", "X", "w", "cs2", "Q")
    for bg, t0 in BACKGROUNDS:
        starts = [initial_state(X=X_start, phi=1.0, t=t0)
                  for X_start in BRANCH_STARTS]
        starts += [initial_state(phidot=-math.sqrt(2.0 * 1.05e3), phi=1.0,
                                 t=t0),
                   initial_state(phidot=0.0, phi=1.0, t=t0)]
        for init in starts:
            kin = evolve_kinetic_only(REF, bg, init, t0 + 3.0, control)
            full = evolve_full(REF, ConstantPotential(V0=0.7), bg, init,
                               t0 + 3.0, control)
            for name in columns:
                assert (getattr(full, name).tobytes()
                        == getattr(kin, name).tobytes()), (init, name)


def _numpy_scalar_rhs(model, potential, background):
    """The full-mode right-hand side on the numpy scalars solve_ivp passes,
    with evolve_full's operations in its order and without its guards."""
    def rhs(t, y):
        phi, phidot = y
        X = 0.5 * phidot * phidot
        F_X = eval_F_X(model, X)
        coef = F_X + 2.0 * X * eval_F_XX(model, X)
        force = (3.0 * background.hubble(t) * F_X * phidot
                 + (2.0 * X * F_X - eval_F(model, X))
                 * potential.log_slope(phi))
        return (phidot, -force / coef)
    return rhs


_FULL_QUADRATIC = load_config(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs",
    "evolve_full_quadratic.json"))


@pytest.mark.parametrize("model,potential,background,init,t_end,control", [
    (_FULL_QUADRATIC.model, _FULL_QUADRATIC.potential,
     _FULL_QUADRATIC.background, _FULL_QUADRATIC.evolve.init,
     _FULL_QUADRATIC.evolve.t_end, _FULL_QUADRATIC.evolve.control),
    (REF, QuadraticPotential(m2=0.3), PowerLaw(p=2.0 / 3.0),
     initial_state(phi=2.0, X=950.0, t=0.5), 4.0,
     StepControl(rel_tol=1e-9, abs_tol=1e-12, n_output=101)),
], ids=["evolve_full_quadratic", "powerlaw-below-X0"])
def test_full_mode_bits_match_numpy_scalar_rhs(model, potential, background,
                                               init, t_end, control):
    # evolve_full forms its right-hand side on Python floats; each step
    # must give the same IEEE result as on numpy scalars, so the same bits.
    traj = evolve_full(model, potential, background, init, t_end, control)
    sol = solve_ivp(_numpy_scalar_rhs(model, potential, background),
                    (init.t, t_end), (init.phi, init.phidot),
                    method="DOP853",
                    rtol=control.rel_tol / evolution._SOLVER_MARGIN,
                    atol=control.abs_tol / evolution._SOLVER_MARGIN,
                    t_eval=traj.t)
    assert sol.success
    assert traj.phi.tobytes() == sol.y[0].tobytes()
    assert traj.phidot.tobytes() == sol.y[1].tobytes()


@pytest.mark.parametrize("c", [0.01, 0.05, 0.2, 0.5])
def test_attractor_from_above(c):
    traj = _reference_run(X_start=(1.0 + c) * REF.X0)
    assert np.all(np.diff(traj.X) < 0.0)
    assert np.all(traj.X > REF.X0)


def test_attractor_from_below():
    traj = _reference_run(X_start=0.5 * REF.X0)
    assert np.all(np.diff(traj.X) > 0.0)
    assert np.all(traj.X < REF.X0)
    assert traj.X[-1] == pytest.approx(REF.X0, rel=1e-3)


# c = -0.1 is on the middle branch X0/3 < X < X0, where |u| falls as a^-3 too
@pytest.mark.parametrize("c", [0.01, 0.1, 0.3, 0.5, -0.1])
def test_dilution_slope(c):
    traj = _reference_run(X_start=(1.0 + c) * REF.X0)
    assert scaling_slope(traj) == pytest.approx(-3.0, abs=0.01)


def test_nearly_static_background_freezes_x():
    bg = DeSitter(H=1e-12)
    traj = evolve_kinetic_only(REF, bg, initial_state(X=1.05e3), 3.0)
    assert np.max(np.abs(traj.X - traj.X[0])) / traj.X[0] <= 1e-6


def test_mirror_solution_is_exact():
    # phidot -> -phidot maps phi -> -phi; the reduced system makes this
    # exact in floating point, not just to solver tolerance
    pos = evolve_kinetic_only(REF, BG,
                              initial_state(phidot=math.sqrt(2.1e3)), 3.0)
    neg = evolve_kinetic_only(REF, BG,
                              initial_state(phidot=-math.sqrt(2.1e3)), 3.0)
    assert np.array_equal(pos.X, neg.X)
    assert np.array_equal(pos.phi, -neg.phi)


def test_axes_monotone():
    traj = _reference_run()
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.all(np.diff(traj.a) > 0.0)
    assert len(traj) == StepControl().n_output


def _cubic_root(X0, X_start, log_growth):
    """(u, X) per L on the branch of X_start with u^2 (X0 + u) =
    u0^2 X_start e^(-6 L), by 30-digit bisection in ln|u| (ln X below
    X0/3)."""
    out = []
    with mpmath.workdps(30):
        X0m, Xs = mpmath.mpf(X0), mpmath.mpf(X_start)
        u0 = Xs - X0m
        s = mpmath.sign(u0)
        if 3 * Xs < X0m:
            def to_uX(w):
                return mpmath.exp(w) - X0m, mpmath.exp(w)
            w_start = mpmath.log(Xs)
        else:
            def to_uX(w):
                return s * mpmath.exp(w), X0m + s * mpmath.exp(w)
            w_start = mpmath.log(abs(u0))
        for L in log_growth:
            target = u0 * u0 * Xs * mpmath.exp(-6 * mpmath.mpf(L))

            def excess(w):
                u, X = to_uX(w)
                return u * u * X - target
            # |u| (X below X0/3) falls as a grows, by less than e^(-6 L - 10)
            lo, hi = w_start - 6 * mpmath.mpf(L) - 10, w_start
            rising = excess(hi) > excess(lo)
            for _ in range(130):
                mid = (lo + hi) / 2
                if (excess(mid) > 0) == rising:
                    hi = mid
                else:
                    lo = mid
            out.append(to_uX((lo + hi) / 2))
    return out


@pytest.mark.parametrize("t_span", [3.0, 10.0, 100.0])
@pytest.mark.parametrize("X_start", BRANCH_STARTS[:3])
@pytest.mark.parametrize("bg,t0", BACKGROUNDS)
def test_first_integral_matches_mpmath_cubic(bg, t0, X_start, t_span):
    init = initial_state(X=X_start, t=t0)
    traj = evolve_kinetic_only(REF, bg, init, t0 + t_span,
                               StepControl(n_output=6))
    X0, F2 = REF.X0, REF.F2
    L = bg.log_scale_ratio(traj.t, t0)
    ref = _cubic_root(X0, init.X, L)
    u, X, _ = _first_integral(X0, init.X, L)
    for i, (u_ref, X_ref) in enumerate(ref):
        # u, and X where it is far below X0, to the rounding of 6 ln a
        tol = 1e-15 * (8.0 + 6.0 * L[i])
        assert abs(u[i] - u_ref) <= tol * abs(u_ref)
        assert abs(X[i] - X_ref) <= tol * X_ref
        # The written columns: the start state, then X0 + u to the nearest
        # float (X itself below X0/3), which cs2 and Q, formed from X,
        # feel relative to u.
        assert traj.X[i] == (init.X if i == 0 else X[i])
        loss = tol + 4.0 * np.spacing(float(X_ref)) / abs(float(u_ref))
        cs2 = u_ref / (2 * X0 + 3 * u_ref)
        assert abs(traj.cs2[i] - cs2) <= loss * abs(cs2)
        Q = 4.0 * F2 * F2 * (init.X - X0) ** 2 * init.X  # constant, a(0) = 1
        assert abs(traj.Q[i] - Q) <= (2 * loss + 1e-14) * Q


def test_first_integral_far_above_extremum():
    # u >> X0: u^2 (X0 + u) is u^3 to the last bit, so u = u0 a^-2, and
    # Newton starts inside the float range though u0^3 is not.
    L = np.array([0.0, 1.0, 10.0, 100.0])
    u, X, _ = _first_integral(1e-300, 1e300, L)
    assert np.allclose(u, 1e300 * np.exp(-2.0 * L), rtol=1e-13, atol=0.0)
    assert np.array_equal(X, 1e-300 + u)


@pytest.mark.parametrize("n_output", [2, 5, 201])
@pytest.mark.parametrize("X_start", BRANCH_STARTS)
@pytest.mark.parametrize("bg,t0", BACKGROUNDS)
def test_phi_matches_tight_dop853(bg, t0, X_start, n_output):
    t_end = t0 + 10.0
    traj = evolve_kinetic_only(REF, bg, initial_state(X=X_start, t=t0),
                               t_end, StepControl(n_output=n_output))

    def rhs(t, y):
        # the kinetic equation in (phi, phidot)
        phidot = y[1]
        X = 0.5 * phidot * phidot
        return (phidot, -3.0 * bg.hubble(t) * phidot * (X - REF.X0)
                / (3.0 * X - REF.X0))

    ref = solve_ivp(rhs, (t0, t_end), (0.0, math.sqrt(2.0 * X_start)),
                    method="DOP853", rtol=1e-13, atol=1e-30,
                    t_eval=traj.t).y[0]
    # relative to the path length, which far below X0/3 is tiny
    assert np.all(np.abs(traj.phi - ref) <= 1e-11 * ref)


@pytest.mark.parametrize("X_start", [5e-324, 1e-321, 1e-318])
def test_kinetic_only_subnormal_start_keeps_phi_and_phidot(X_start):
    # Far below X0/3, X = X(0) a^-6 leaves the normal range at once, yet
    # phidot = sqrt(2 X(0)) e^-3t and phi, its integral, are normal floats.
    init = initial_state(X=X_start)
    traj = evolve_kinetic_only(REF, BG, init, 3.0, StepControl(n_output=31))
    speed = math.sqrt(2.0 * init.X)
    assert np.allclose(traj.phidot, speed * np.exp(-3.0 * traj.t),
                       rtol=1e-13, atol=0.0)
    assert np.allclose(traj.phi, -speed * np.expm1(-3.0 * traj.t) / 3.0,
                       rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# invariant values
# ---------------------------------------------------------------------------

def _state_Q(model, state):
    """The Q column of a one-row trajectory at `state`."""
    return Trajectory.build(model, [state.t], [state.a], [state.phi],
                            [state.phidot], [state.X],
                            [state.X - model.X0]).Q[0]


def test_invariant_value_rational_oracle():
    state = initial_state(X=1050.0, a=2.0)
    got = _state_Q(REF, state)
    Xf = Fraction(state.X)
    expect = Xf * (2 * Fraction(1e3) * (Xf - Fraction(1e3))) ** 2 \
        * Fraction(2.0) ** 6
    assert got == pytest.approx(float(expect), rel=1e-14)


def test_invariant_zero_at_extremum():
    m = KineticModel(F2=1e3, X0=800.0)
    assert _state_Q(m, initial_state(phidot=40.0)) == 0.0


def test_trajectory_build_accepts_exact_x():
    t = np.linspace(0.0, 1.0, 11)
    a = np.exp(t)
    X = np.full(11, 1050.0)
    traj = Trajectory.build(REF, t, a, np.zeros(11), np.sqrt(2.0 * X), X=X,
                            u=X - REF.X0)
    assert np.array_equal(traj.X, X) and np.array_equal(traj.u, X - REF.X0)
    assert len(traj) == 11


def test_trajectory_build_refuses_the_first_column_out_of_range():
    # a^6 overflows on the second row; phi is NaN from the third
    t, a = [0.0, 1.0, 2.0], [1.0, 1e52, 1.0]
    X, u = [1050.0] * 3, [50.0] * 3
    with pytest.raises(StepFailure, match=r"^Q left the float range by t=1.0$"):
        Trajectory.build(REF, t, a, [0.0, 0.0, math.nan], [45.0] * 3, X, u)
    with pytest.raises(StepFailure, match=r"^phi left .* by t=2.0$"):
        Trajectory.build(REF, t, [1.0] * 3, [0.0, 0.0, math.nan], [45.0] * 3,
                         X, u)


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_scaling_law():
    X0 = 1e3
    eps1 = 0.02
    t = np.linspace(0.0, 3.0, 101)
    a = np.exp(t)
    u = X0 * eps1 * (a[0] / a) ** 3
    X = X0 + u
    traj = Trajectory.build(REF, t, a, np.zeros_like(t), np.sqrt(2.0 * X),
                            X=X, u=u)
    law, residual = fit_scaling(traj)
    # the tail is the last 50 rows; a1 is its first sample
    assert law.X0 == REF.X0 and law.a1 == a[51]
    assert law.eps1 == pytest.approx(eps1 * (a[0] / a[51]) ** 3, rel=1e-10)
    assert residual <= 1e-9


def test_fit_on_integrated_run():
    control = StepControl()
    traj = _reference_run(control=control)
    law, residual = fit_scaling(traj)
    assert isinstance(law, ScalingSolution)
    assert 0.0 < law.eps1 < 0.05
    assert residual <= 1e-3


def test_fit_consistent_with_pointwise_cs2():
    traj = _reference_run()
    s, _ = fit_scaling(traj)
    n = len(traj)
    tail = slice(n - int(round(0.5 * n)), None)
    predicted = scaling_cs2_of_a(s, traj.a[tail])
    assert np.max(np.abs(predicted / traj.cs2[tail] - 1.0)) <= 1e-3


def test_fit_validation():
    # 12 rows leave a 6-row tail, under the 10 rows the fit needs
    short = evolve_kinetic_only(REF, BG, initial_state(X=1.05e3), 1.0,
                                StepControl(n_output=12))
    with pytest.raises(FitDomain, match="got 6"):
        fit_scaling(short)


def test_fit_rejects_tail_at_or_below_extremum():
    m = KineticModel(F2=1e3, X0=800.0)
    traj = evolve_kinetic_only(m, BG, initial_state(phidot=40.0), 2.0)
    with pytest.raises(FitDomain, match="^fit tail is not on one branch"):
        fit_scaling(traj)


# By t = 10 the rounding of X is about 1 % of u = X - X0, and from t = 11.7
# on X is 1000.0 = X0; the fit and slope read the solver's u.  X(0) = 900 is
# on the middle branch, so its eps1 is negative.
@pytest.mark.parametrize("X_start, t_end",
                         [(1050.0, 10.0), (1050.0, 20.0), (900.0, 10.0)])
def test_fit_and_slope_read_the_solvers_u(X_start, t_end):
    traj = _reference_run(X_start=X_start, t_end=t_end)
    law, residual = fit_scaling(traj)
    assert math.copysign(1.0, law.eps1) == math.copysign(1.0, X_start - 1e3)
    assert residual <= 1e-6
    assert scaling_slope(traj) == pytest.approx(-3.0, abs=0.01)


def test_fit_and_slope_refuse_the_low_branch():
    # 0 < X < X0/3 tends to X = 0, not to X0
    traj = _reference_run(X_start=200.0, t_end=10.0)
    with pytest.raises(FitDomain, match="^fit tail is not on one branch"):
        fit_scaling(traj)
    with pytest.raises(FitDomain, match="^slope window is not on one branch"):
        scaling_slope(traj)


def test_slope_needs_growth_window():
    traj = _reference_run(t_end=0.2)
    with pytest.raises(FitDomain):
        scaling_slope(traj)


def test_slope_rejects_rows_below_extremum():
    m = KineticModel(F2=1e3, X0=800.0)
    traj = evolve_kinetic_only(m, BG, initial_state(phidot=40.0), 2.0)
    with pytest.raises(FitDomain, match="^slope window is not on one branch"):
        scaling_slope(traj)


def test_slope_refuses_a_window_where_a_takes_one_value():
    # from the subnormal a(1) = 5e-324, a = t^0.5 5e-324 rounds to 1e-323
    # on every row from t = 2.25 on, so log a is one value in the window
    traj = evolve_kinetic_only(KineticModel(F2=3.0, X0=1e3), PowerLaw(p=0.5),
                               initial_state(X=1050.0, t=1.0, a=5e-324), 3.0)
    assert np.all(traj.a[traj.a >= 2.0 * traj.a[0]] == 1e-323)
    with pytest.raises(FitDomain, match="^a takes one value"):
        scaling_slope(traj)


@settings(max_examples=25)
@given(st.floats(min_value=0.005, max_value=0.5, **_f))
def test_attractor_property(c):
    traj = _reference_run(X_start=(1.0 + c) * REF.X0)
    assert np.all(traj.X > REF.X0)
    assert np.all(np.diff(traj.X) < 0.0)
    assert scaling_slope(traj) == pytest.approx(-3.0, abs=0.01)
