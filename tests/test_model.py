"""Unit tests for the kinetic model: closed forms, guards, classification.

Frozen numeric values are checked against exact rational arithmetic
(fractions.Fraction of the same float inputs), which gives an oracle
independent of the float evaluation order used in the library.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kessence.errors import DegenerateDenominator
from kessence.model import (
    CS2_DUST_MAX,
    KineticModel,
    ConstantPotential,
    QuadraticPotential,
    RegimeLabel,
    ScalingSolution,
    W_BAND,
    classify_regimes,
    cs2_thinwall_approx,
    density,
    eos_w,
    eval_F,
    eval_F_X,
    eval_F_XX,
    guarded_div,
    pressure,
    scaling_cs2_of_a,
    sound_speed,
    sound_speed_perturbed,
    w_perturbed_exact,
    w_thinwall_approx,
)

REF = KineticModel(F2=1e3, X0=1e3, eps0=1e-2, F0=-1.0)

_pos = dict(allow_nan=False, allow_infinity=False)
F2S = st.floats(min_value=1e-6, max_value=1e6, **_pos)
X0S = st.floats(min_value=1e-6, max_value=1e6, **_pos)
F0S = st.floats(min_value=-1e3, max_value=-1e-3, **_pos) | st.floats(
    min_value=1e-3, max_value=1e3, **_pos)
MODELS = st.builds(KineticModel, F2=F2S, X0=X0S, F0=F0S)


def _exact_rational(fn, *floats):
    """Evaluate fn on Fractions of the given floats, return a float."""
    return float(fn(*[Fraction(v) for v in floats]))


# ---------------------------------------------------------------------------
# F and its derivatives
# ---------------------------------------------------------------------------

def test_F_at_extremum_equals_F0():
    assert eval_F(REF, 1e3) == -1.0
    assert eval_F_X(REF, 1e3) == 0.0
    assert eval_F_XX(REF, 123.0) == 2e3


def test_F_near_extremum_reference_value():
    # F(X0 + 1e-2) = -1 + 1e3 * 1e-4 = -0.9
    got = eval_F(REF, REF.X0 + 1e-2)
    expect = _exact_rational(
        lambda F0, F2, X0, X: F0 + F2 * (X - X0) ** 2,
        REF.F0, REF.F2, REF.X0, REF.X0 + 1e-2)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(-0.9, rel=1e-10)


@given(MODELS, st.floats(min_value=1e-2, max_value=0.9), st.booleans())
def test_F_symmetric_about_extremum(m, c, above):
    d = c * m.X0
    X = m.X0 + d if above else m.X0 - d
    mirror = m.X0 - d if above else m.X0 + d
    assert eval_F(m, X) == pytest.approx(eval_F(m, mirror), rel=1e-12)


def test_F_X_vanishes_only_at_extremum():
    xs = np.linspace(0.5, 1.5, 7) * REF.X0
    fx = eval_F_X(REF, xs)
    assert np.count_nonzero(fx == 0.0) == 1
    assert fx[3] == 0.0  # the midpoint is X0


# ---------------------------------------------------------------------------
# w and cs2, exact forms
# ---------------------------------------------------------------------------

def test_w_at_extremum_is_minus_one_exactly():
    for m in (REF, KineticModel(F2=7.5, X0=0.003, F0=2.0)):
        assert float(eos_w(m, m.X0)) == -1.0
        assert float(sound_speed(m, m.X0)) == 0.0
    # the flat case still has w = -1 but its sound speed is 0/0
    flat = KineticModel(F2=0.0, X0=5.0)
    assert float(eos_w(flat, flat.X0)) == -1.0
    with pytest.raises(DegenerateDenominator):
        sound_speed(flat, flat.X0)


def test_cs2_closed_form_random(rng):
    for _ in range(400):
        X0 = 10.0 ** rng.uniform(-3, 3)
        F2 = 10.0 ** rng.uniform(-3, 3)
        r = rng.uniform(0.05, 3.0)
        if abs(3.0 * r - 1.0) < 3e-2:
            continue
        X = r * X0
        got = sound_speed(KineticModel(F2=F2, X0=X0), X)
        assert got == pytest.approx((X - X0) / (3.0 * X - X0), rel=1e-12)


def test_cs2_at_double_extremum():
    # (2 X0 - X0) / (6 X0 - X0) = 1/5
    assert sound_speed(REF, 2.0 * REF.X0) == pytest.approx(0.2, rel=1e-14)


@given(MODELS, st.floats(min_value=1e-9, max_value=1e6, **_pos))
def test_cs2_range_above_extremum(m, c):
    X = m.X0 * (1.0 + c)
    assume(np.isfinite(X) and X > m.X0)
    v = float(sound_speed(m, X))
    assert 0.0 <= v < 0.34


def test_w_guard_at_zero_density():
    # With F0=-1, F2=1, X0=1 the density factor 2*X*F_X - F = X*(3X - 2)
    # vanishes at X = 2/3.
    m = KineticModel(F2=1.0, X0=1.0, F0=-1.0)
    with pytest.raises(DegenerateDenominator):
        eos_w(m, 2.0 / 3.0)


def test_cs2_guard_at_third_of_extremum():
    m = KineticModel(F2=2.0, X0=3.0)
    with pytest.raises(DegenerateDenominator):
        sound_speed(m, 1.0)


# ---------------------------------------------------------------------------
# Perturbed closed forms and thin-wall approximations
# ---------------------------------------------------------------------------

def test_perturbed_w_paper_point():
    expect = _exact_rational(
        lambda F0, F2, X0, e: -(F0 + F2 * e * e)
        / (F0 + F2 * e * e - 4 * (X0 + e) * F2 * e),
        REF.F0, REF.F2, REF.X0, REF.eps0)
    got = float(w_perturbed_exact(REF))
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(-2.25e-5, rel=1e-3)


def test_perturbed_cs2_paper_point():
    expect = _exact_rational(lambda X0, e: 1 / (3 + 2 * X0 / e),
                             REF.X0, REF.eps0)
    got = float(sound_speed_perturbed(REF))
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(4.99993e-6, rel=1e-5)


def test_perturbed_cs2_requires_positive_eps0():
    with pytest.raises(ValueError):
        sound_speed_perturbed(KineticModel(F2=1.0, X0=1.0))


def test_perturbed_w_defined_at_zero_eps0():
    # -F0 / F0 = -1 with no division hazard
    m = KineticModel(F2=1e3, X0=1e3, eps0=0.0, F0=-1.0)
    assert float(w_perturbed_exact(m)) == -1.0


def test_thinwall_w_paper_point():
    got = float(w_thinwall_approx(1e3, 1e-2, 1e3))
    expect = _exact_rational(
        lambda X0, e, F2: -1 / (1 - 4 * X0 * e / F2), 1e3, 1e-2, 1e3)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(-25.0 / 24.0, rel=1e-9)
    assert abs(got + 1.0) <= 0.05


def test_thinwall_w_guard():
    with pytest.raises(DegenerateDenominator):
        w_thinwall_approx(1.0, 0.25, 1.0)


def test_thinwall_cs2_paper_point():
    got = float(cs2_thinwall_approx(1e3, 1e-2))
    expect = _exact_rational(
        lambda X0, e: 1 / (1 + 4 * X0 * (1 + X0 / (2 * e))), 1e3, 1e-2)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got <= 1e-8


def test_thinwall_cs2_thick_limit():
    assert cs2_thinwall_approx(1e-3, 1e-2) == pytest.approx(0.99582, abs=1e-5)
    grid = np.geomspace(1e-8, 10.0, 40)
    vals = cs2_thinwall_approx(grid, 1e-2)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] > 1.0 - 1e-6
    assert np.all((vals > 0.0) & (vals <= 1.0))


def test_thinwall_cs2_requires_positive_eps0():
    with pytest.raises(ValueError):
        cs2_thinwall_approx(1.0, 0.0)


@given(st.floats(min_value=1e-6, max_value=1e3, **_pos),
       st.floats(min_value=1.001, max_value=1e3, **_pos),
       st.floats(min_value=1e-6, max_value=1e2, **_pos))
def test_thinwall_cs2_monotone_in_X0(x0, factor, eps0):
    lo = cs2_thinwall_approx(x0, eps0)
    hi = cs2_thinwall_approx(x0 * factor, eps0)
    assert lo > hi


# ---------------------------------------------------------------------------
# Potential cancellation
# ---------------------------------------------------------------------------

def test_potential_cancels_in_w(rng):
    pots = [ConstantPotential(V0=0.37), QuadraticPotential(m2=2.5)]
    n_checked = 0
    for _ in range(300):
        m = KineticModel(F2=10.0 ** rng.uniform(-2, 3),
                         X0=10.0 ** rng.uniform(-2, 3),
                         F0=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1))
        X = m.X0 * rng.uniform(0.05, 5.0)
        phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        try:
            w = eos_w(m, X)
        except DegenerateDenominator:
            continue
        for pot in pots:
            ratio = pressure(m, pot, phi, X) / density(m, pot, phi, X)
            assert ratio == pytest.approx(w, rel=1e-12)
            n_checked += 1
    assert n_checked > 400


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

def test_model_validation():
    with pytest.raises(ValueError):
        KineticModel(F2=-1.0, X0=1.0)
    with pytest.raises(ValueError):
        KineticModel(F2=1.0, X0=0.0)
    with pytest.raises(ValueError):
        KineticModel(F2=1.0, X0=1.0, F0=0.0)
    with pytest.raises(ValueError):
        KineticModel(F2=1.0, X0=1.0, eps0=-0.1)
    # the flat case F2=0 is a valid (degenerate) model at the type level
    KineticModel(F2=0.0, X0=1.0)


def test_potential_validation():
    with pytest.raises(ValueError):
        ConstantPotential(V0=0.0)
    with pytest.raises(ValueError):
        QuadraticPotential(m2=-1.0)
    q = QuadraticPotential(m2=0.5)
    assert q.value(3.0) == 4.5
    assert q.curvature(3.0) == 1.0
    assert q.log_slope(4.0) == 0.5
    with pytest.raises(ZeroDivisionError):
        q.log_slope(0.0)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w,cs2,label", [
    (-1.0, 0.0, RegimeLabel.COSMOLOGICAL_CONSTANT),
    (-0.96, 0.005, RegimeLabel.COSMOLOGICAL_CONSTANT),
    (-1.04, 0.0099, RegimeLabel.COSMOLOGICAL_CONSTANT),
    (0.0, 0.0, RegimeLabel.DARK_MATTER_LIKE),
    (0.04, 0.002, RegimeLabel.DARK_MATTER_LIKE),
    (1.0 / 3.0, 0.5, RegimeLabel.RADIATION_LIKE),
    (0.3, 0.9, RegimeLabel.RADIATION_LIKE),
    (-0.5, 0.3, RegimeLabel.DARK_ENERGY_MIX),
    (-0.06, 0.5, RegimeLabel.DARK_ENERGY_MIX),
    (0.2, 0.5, RegimeLabel.UNCLASSIFIED),
    (-1.0, 0.5, RegimeLabel.UNCLASSIFIED),
    (0.0, 0.5, RegimeLabel.UNCLASSIFIED),
    (2.0, 0.0, RegimeLabel.UNCLASSIFIED),
    (math.nan, 0.0, RegimeLabel.UNCLASSIFIED),
    (-1.0, math.nan, RegimeLabel.UNCLASSIFIED),
])
def test_classify_table(w, cs2, label):
    assert classify_regimes(w, cs2) == label.value


def test_classify_stable_away_from_boundaries(rng):
    # label boundaries in w and cs2
    w_edges = np.array([-1.0 - W_BAND, -1.0 + W_BAND, -W_BAND, W_BAND,
                        1.0 / 3.0 - W_BAND, 1.0 / 3.0 + W_BAND])
    checked = 0
    for _ in range(3000):
        w = rng.uniform(-2.0, 2.0)
        cs2 = rng.uniform(0.0, 1.2)
        if np.min(np.abs(w - w_edges)) < 1e-6 or abs(cs2 - CS2_DUST_MAX) < 1e-6:
            continue
        base = classify_regimes(w, cs2)
        for dw in (-1e-9, 0.0, 1e-9):
            for dc in (-1e-9, 0.0, 1e-9):
                assert classify_regimes(w + dw, cs2 + dc) == base
        checked += 1
    assert checked > 2500


def test_classify_array_form_matches_scalar(rng):
    w = np.concatenate([rng.uniform(-1.2, 0.5, 2000),
                        [-1.05, -0.95, -0.05, 0.05, math.nan, math.inf]])
    cs2 = np.concatenate([rng.uniform(0.0, 0.02, 2000),
                          [0.01, 0.01, 0.0, 0.01, 0.0, 0.0]])
    labels = classify_regimes(w, cs2)
    assert labels.shape == w.shape
    assert labels.tolist() == [classify_regimes(a, b).item()
                               for a, b in zip(w, cs2)]


# ---------------------------------------------------------------------------
# Pole guard
# ---------------------------------------------------------------------------

def test_guarded_div_scalar_and_array():
    assert guarded_div(1.0, 4.0, 1.0) == (0.25, False)
    q, pole = guarded_div(1.0, 1e-13, 1.0)
    assert math.isnan(q) and pole
    q, pole = guarded_div(np.array([1.0, 2.0, 3.0]),
                          np.array([2.0, 0.0, 1e-13]), np.array([1.0, 1.0, 1e-2]))
    assert q[0] == 0.5 and np.isnan(q[1]) and q[2] == 3.0 / 1e-13
    assert pole.tolist() == [False, True, False]
    # a NaN denominator is not a pole: the NaN passes through
    q, pole = guarded_div(1.0, math.nan, 1.0)
    assert math.isnan(q) and not pole


def test_masked_closed_forms_match_raising_forms():
    m = KineticModel(F2=1.0, X0=3.0, F0=63.0)
    X = np.linspace(0.0, 8.0, 17)  # poles: cs2 at X = 1, w at X = 6
    for fn in (eos_w, sound_speed):
        values, pole = fn(m, X, masked=True)
        assert pole.tolist() == [bool(p) for p in
                                 (X == (1.0 if fn is sound_speed else 6.0))]
        for x, v, p in zip(X, values, pole):
            if p:
                assert math.isnan(v)
                with pytest.raises(DegenerateDenominator):
                    fn(m, x)
            else:
                assert v == fn(m, x)
    pm = KineticModel(F2=1.0, X0=1.0, eps0=np.array([0.0, 0.5, 1.0]), F0=7.0)
    w, pole = w_perturbed_exact(pm, masked=True)
    assert w[0] == -1.0 and np.isnan(w[2]) and pole.tolist() == [False, False, True]
    cs2, pole = sound_speed_perturbed(pm, masked=True)
    assert np.isnan(cs2[0]) and pole.tolist() == [True, False, False]
    assert cs2[1] == sound_speed_perturbed(KineticModel(F2=1.0, X0=1.0, eps0=0.5))
    cs2, pole = cs2_thinwall_approx(1.0, pm.eps0, masked=True)
    assert np.isnan(cs2[0]) and cs2[2] == cs2_thinwall_approx(1.0, 1.0)
    w, pole = w_thinwall_approx(1.0, pm.eps0, 2.0, masked=True)
    assert pole.tolist() == [False, True, False] and np.isnan(w[1])


# ---------------------------------------------------------------------------
# Scaling solution helpers
# ---------------------------------------------------------------------------

def test_scaling_values():
    s = ScalingSolution(X0=1e3, eps1=0.02, a1=2.0)
    assert scaling_cs2_of_a(s, 2.0) == pytest.approx(0.02 / 2.06, rel=1e-13)
    assert scaling_cs2_of_a(s, 2.0, mode="first_order") == pytest.approx(
        0.01, rel=1e-15)


def test_scaling_mode_and_domain_errors():
    s = ScalingSolution(X0=1.0, eps1=0.02, a1=1.0)
    with pytest.raises(ValueError):
        scaling_cs2_of_a(s, 1.0, mode="bogus")
    with pytest.raises(ValueError):
        scaling_cs2_of_a(s, 0.0)
    with pytest.raises(ValueError):
        ScalingSolution(X0=0.0, eps1=0.1, a1=1.0)
    with pytest.raises(ValueError):
        ScalingSolution(X0=1.0, eps1=0.1, a1=-2.0)


def test_scaling_cs2_pole_guarded():
    # X = X0 (1 + eps1) with eps1 = -2/3 puts 3X - X0 at zero
    s = ScalingSolution(X0=1.0, eps1=-2.0 / 3.0, a1=1.0)
    with pytest.raises(DegenerateDenominator):
        scaling_cs2_of_a(s, 1.0)


def test_scaling_cs2_matches_pointwise_form():
    s = ScalingSolution(X0=40.0, eps1=0.07, a1=1.5)
    a = np.geomspace(1.5, 150.0, 64)
    X = 40.0 * (1.0 + 0.07 * (a / 1.5) ** -3.0)
    m = KineticModel(F2=3.0, X0=40.0)
    assert np.allclose(scaling_cs2_of_a(s, a), sound_speed(m, X), rtol=1e-12)
