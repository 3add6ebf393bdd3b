"""Tests for background evolution: integrators, invariant, scaling fits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kessence.errors import FitDomain, SingularMassMatrix, StepFailure
from kessence.evolution import (
    DeSitter,
    FieldState,
    PowerLaw,
    ScalingFit,
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
    s = FieldState(t=1.0, a=2.0, phi=0.5, phidot=3.0)
    assert s.X == 4.5
    with pytest.raises(ValueError):
        FieldState(t=0.0, a=0.0, phi=0.0, phidot=0.0)
    with pytest.raises(ValueError):
        FieldState(t=0.0, a=-1.0, phi=0.0, phidot=0.0)
    # X = phidot^2 / 2 overflows: no integrator can start from it
    with pytest.raises(ValueError):
        FieldState(t=0.0, a=1.0, phi=0.0, phidot=1e200)
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


# ---------------------------------------------------------------------------
# degeneracy guards
# ---------------------------------------------------------------------------

def test_flat_kinetic_function_rejected():
    m = KineticModel(F2=0.0, X0=1.0)
    with pytest.raises(SingularMassMatrix):
        evolve_kinetic_only(m, BG, initial_state(X=2.0), 1.0)
    with pytest.raises(SingularMassMatrix):
        evolve_full(m, ConstantPotential(V0=1.0), BG, initial_state(X=2.0),
                    1.0)


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


def test_full_reduces_to_kinetic_for_constant_potential():
    control = StepControl()
    init = initial_state(X=1.05e3)
    kin = evolve_kinetic_only(REF, BG, init, 3.0, control)
    full = evolve_full(REF, ConstantPotential(V0=0.7), BG, init, 3.0,
                       control)
    assert np.max(np.abs(full.X / kin.X - 1.0)) <= 10.0 * control.rel_tol
    assert np.max(np.abs(full.phi - kin.phi)) <= 1e-6


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


@pytest.mark.parametrize("c", [0.01, 0.1, 0.3, 0.5])
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
    pos = evolve_kinetic_only(REF, BG, initial_state(X=1.05e3), 3.0)
    neg = evolve_kinetic_only(REF, BG,
                              initial_state(phidot=-math.sqrt(2.1e3)), 3.0)
    assert np.array_equal(pos.X, neg.X)
    assert np.array_equal(pos.phi, -neg.phi)


def test_axes_monotone():
    traj = _reference_run()
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.all(np.diff(traj.a) > 0.0)
    assert len(traj) == StepControl().n_output


# ---------------------------------------------------------------------------
# invariant values
# ---------------------------------------------------------------------------

def _state_Q(model, state):
    """The Q column of a one-row trajectory at `state`."""
    return Trajectory.build(model, [state.t], [state.a], [state.phi],
                            [state.phidot]).Q[0]


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
    traj = Trajectory.build(REF, t, a, np.zeros(11), np.sqrt(2.0 * X), X=X)
    assert np.array_equal(traj.X, X)
    assert len(traj) == 11


# ---------------------------------------------------------------------------
# scaling fits
# ---------------------------------------------------------------------------

def test_fit_recovers_synthetic_scaling_law():
    X0 = 1e3
    eps1 = 0.02
    t = np.linspace(0.0, 3.0, 101)
    a = np.exp(t)
    X = X0 * (1.0 + eps1 * (a[0] / a) ** 3)
    traj = Trajectory.build(REF, t, a, np.zeros_like(t), np.sqrt(2.0 * X),
                            X=X)
    fit = fit_scaling(traj)
    # the tail is the last 50 rows; a1 is its first sample
    assert fit.a1 == a[51]
    assert fit.eps1 == pytest.approx(eps1 * (a[0] / a[51]) ** 3, rel=1e-10)
    assert fit.max_residual <= 1e-9


def test_fit_on_integrated_run():
    control = StepControl()
    traj = _reference_run(control=control)
    fit = fit_scaling(traj)
    assert isinstance(fit, ScalingFit)
    assert 0.0 < fit.eps1 < 0.05
    assert fit.max_residual <= 1e-3


def test_fit_consistent_with_pointwise_cs2():
    traj = _reference_run()
    fit = fit_scaling(traj)
    s = ScalingSolution(X0=REF.X0, eps1=fit.eps1, a1=fit.a1)
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
    with pytest.raises(FitDomain):
        fit_scaling(traj)


def test_slope_needs_growth_window():
    traj = _reference_run(t_end=0.2)
    with pytest.raises(FitDomain):
        scaling_slope(traj)


def test_slope_rejects_rows_below_extremum():
    m = KineticModel(F2=1e3, X0=800.0)
    traj = evolve_kinetic_only(m, BG, initial_state(phidot=40.0), 2.0)
    with pytest.raises(FitDomain):
        scaling_slope(traj)


@settings(max_examples=25)
@given(st.floats(min_value=0.005, max_value=0.5, **_f))
def test_attractor_property(c):
    traj = _reference_run(X_start=(1.0 + c) * REF.X0)
    assert np.all(traj.X > REF.X0)
    assert np.all(np.diff(traj.X) < 0.0)
    assert scaling_slope(traj) == pytest.approx(-3.0, abs=0.01)
