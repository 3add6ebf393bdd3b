"""Unit tests for the kinetic model: closed forms, guards, classification.

Frozen numeric values are checked against exact rational arithmetic
(fractions.Fraction of the same float inputs), which gives an oracle
independent of the float evaluation order used in the library.
"""

import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kessence.model import (
    CS2_DUST_MAX,
    KineticModel,
    ConstantPotential,
    QuadraticPotential,
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


def _nan_at_pole(result):
    """True if a scalar closed-form result is (NaN, True)."""
    value, pole = result
    return math.isnan(value) and bool(pole)


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
        assert eos_w(m, m.X0) == (-1.0, False)
        assert sound_speed(m, m.X0) == (0.0, False)
    # the flat case still has w = -1 but its sound speed is 0/0
    flat = KineticModel(F2=0.0, X0=5.0)
    assert eos_w(flat, flat.X0) == (-1.0, False)
    assert _nan_at_pole(sound_speed(flat, flat.X0))


def test_cs2_closed_form_random(rng):
    for _ in range(400):
        X0 = 10.0 ** rng.uniform(-3, 3)
        F2 = 10.0 ** rng.uniform(-3, 3)
        r = rng.uniform(0.05, 3.0)
        if abs(3.0 * r - 1.0) < 3e-2:
            continue
        X = r * X0
        got, pole = sound_speed(KineticModel(F2=F2, X0=X0), X)
        assert not pole
        assert got == pytest.approx((X - X0) / (3.0 * X - X0), rel=1e-12)


def test_cs2_at_double_extremum():
    # (2 X0 - X0) / (6 X0 - X0) = 1/5
    cs2, pole = sound_speed(REF, 2.0 * REF.X0)
    assert cs2 == pytest.approx(0.2, rel=1e-14) and not pole


@given(MODELS, st.floats(min_value=1e-9, max_value=1e6, **_pos))
def test_cs2_range_above_extremum(m, c):
    X = m.X0 * (1.0 + c)
    assume(np.isfinite(X) and X > m.X0)
    v, pole = sound_speed(m, X)
    assert not pole and 0.0 <= v < 0.34


def test_w_guard_at_zero_density():
    # With F0=-1, F2=1, X0=1 the density factor 2*X*F_X - F = X*(3X - 2)
    # vanishes at X = 2/3.
    m = KineticModel(F2=1.0, X0=1.0, F0=-1.0)
    assert _nan_at_pole(eos_w(m, 2.0 / 3.0))


def test_cs2_guard_at_third_of_extremum():
    m = KineticModel(F2=2.0, X0=3.0)
    assert _nan_at_pole(sound_speed(m, 1.0))


def test_cs2_where_both_terms_underflow():
    # F_X and 2 X F_XX both underflow to 0, yet the value is
    # (X - X0)/(3 X - X0) = 1/3 and not a 0/0 pole.
    m = KineticModel(F2=4.2e-259, X0=3.6e-276)
    assert sound_speed(m, -1.1e-219) == (1.0 / 3.0, False)
    # A flat F stays 0/0.
    assert _nan_at_pole(sound_speed(replace(m, F2=0.0), -1.1e-219))

    # Log-uniform draws over ±[1e-300, 1e300]: about 3 % lose both terms.
    rng = np.random.default_rng(0)
    F2, X0, X = 10.0 ** rng.uniform(-300.0, 300.0, size=(3, 20_000))
    X *= rng.choice([-1.0, 1.0], X.size)
    m = KineticModel(F2=F2, X0=X0)
    with np.errstate(all="ignore"):
        lost = (eval_F_X(m, X) == 0.0) & (2.0 * X * eval_F_XX(m, X) == 0.0)
    assert lost.sum() > 500
    values, pole = sound_speed(m, X)
    assert not pole[lost].any()
    for v, x, x0 in zip(values[lost].tolist(), X[lost].tolist(),
                        X0[lost].tolist()):
        x, x0 = Fraction(x), Fraction(x0)
        assert v == pytest.approx(float((x - x0) / (3 * x - x0)), rel=1e-15)


# ---------------------------------------------------------------------------
# Perturbed closed forms and thin-wall approximations
# ---------------------------------------------------------------------------

def test_perturbed_w_paper_point():
    expect = _exact_rational(
        lambda F0, F2, X0, e: -(F0 + F2 * e * e)
        / (F0 + F2 * e * e - 4 * (X0 + e) * F2 * e),
        REF.F0, REF.F2, REF.X0, REF.eps0)
    got, pole = w_perturbed_exact(REF)
    assert not pole
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(-2.25e-5, rel=1e-3)


def test_perturbed_cs2_paper_point():
    expect = _exact_rational(lambda X0, e: 1 / (3 + 2 * X0 / e),
                             REF.X0, REF.eps0)
    got, pole = sound_speed_perturbed(REF)
    assert not pole
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(4.99993e-6, rel=1e-5)


def test_perturbed_cs2_requires_positive_eps0():
    assert _nan_at_pole(sound_speed_perturbed(KineticModel(F2=1.0, X0=1.0)))


def test_perturbed_w_defined_at_zero_eps0():
    # -F0 / F0 = -1 with no division hazard
    m = KineticModel(F2=1e3, X0=1e3, eps0=0.0, F0=-1.0)
    assert w_perturbed_exact(m) == (-1.0, False)


def test_thinwall_w_paper_point():
    got, pole = w_thinwall_approx(REF)
    assert not pole
    expect = _exact_rational(
        lambda X0, e, F2: -1 / (1 - 4 * X0 * e / F2), 1e3, 1e-2, 1e3)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(-25.0 / 24.0, rel=1e-9)
    assert abs(got + 1.0) <= 0.05


def test_thinwall_w_guard():
    assert _nan_at_pole(w_thinwall_approx(
        KineticModel(F2=1.0, X0=1.0, eps0=0.25)))


def test_thinwall_cs2_paper_point():
    got, pole = cs2_thinwall_approx(REF)
    assert not pole
    expect = _exact_rational(
        lambda X0, e: 1 / (1 + 4 * X0 * (1 + X0 / (2 * e))), 1e3, 1e-2)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got <= 1e-8


def test_thinwall_cs2_thick_limit():
    assert cs2_thinwall_approx(replace(REF, X0=1e-3)) == (
        pytest.approx(0.99582, abs=1e-5), False)
    grid = np.geomspace(1e-8, 10.0, 40)
    vals, pole = cs2_thinwall_approx(replace(REF, X0=grid))
    assert not np.any(pole)
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] > 1.0 - 1e-6
    assert np.all((vals > 0.0) & (vals <= 1.0))


def test_thinwall_cs2_requires_positive_eps0():
    assert _nan_at_pole(cs2_thinwall_approx(KineticModel(F2=1.0, X0=1.0)))
    # the thin-wall forms' domain is the model's own
    for bad in ({"X0": -1.0}, {"eps0": -0.1}, {"F2": -1.0}):
        with pytest.raises(ValueError, match="must be"):
            KineticModel(**{"F2": 1.0, "X0": 1.0, "eps0": 0.1, **bad})


def test_thinwall_cs2_overflowing_denominator_is_zero_without_warning():
    # 4 X0 (1 + X0/(2 eps0)) overflows to inf, and 1/inf = 0.0 is the value;
    # the suite turns a numpy overflow warning into an error
    def thin(X0, eps0):
        return cs2_thinwall_approx(KineticModel(F2=1.0, X0=X0, eps0=eps0))

    assert thin(1e200, 1e-100) == (0.0, False)
    assert thin(1e300, 1e-300) == (0.0, False)
    # 2 eps0 overflows, X0/(2 eps0) does not: 1/(1 + 4) as eps0 -> inf
    assert thin(1.0, 1e308) == (0.2, False)
    cs2, pole = thin(np.array([1e200, 1e3, 1e308, 1.0]),
                     np.array([1e-100, 1e-2, 1e308, 0.0]))
    assert cs2[[0, 2]].tolist() == [0.0, 0.0]
    assert cs2[1] == thin(1e3, 1e-2)[0] and np.isnan(cs2[3])
    assert pole.tolist() == [False, False, False, True]


@given(st.floats(min_value=1e-6, max_value=1e3, **_pos),
       st.floats(min_value=1.001, max_value=1e3, **_pos),
       st.floats(min_value=1e-6, max_value=1e2, **_pos))
def test_thinwall_cs2_monotone_in_X0(x0, factor, eps0):
    lo, lo_pole = cs2_thinwall_approx(KineticModel(F2=1.0, X0=x0, eps0=eps0))
    hi, hi_pole = cs2_thinwall_approx(
        KineticModel(F2=1.0, X0=x0 * factor, eps0=eps0))
    assert not (lo_pole or hi_pole) and lo > hi


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
        w, pole = eos_w(m, X)
        if pole:
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
    assert q.log_slope(4.0) == 0.5
    with pytest.raises(ZeroDivisionError):
        q.log_slope(0.0)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w,cs2,label", [
    (-1.0, 0.0, "CosmologicalConstant"),
    (-0.96, 0.005, "CosmologicalConstant"),
    (-1.04, 0.0099, "CosmologicalConstant"),
    (0.0, 0.0, "DarkMatterLike"),
    (0.04, 0.002, "DarkMatterLike"),
    (1.0 / 3.0, 0.5, "RadiationLike"),
    (0.3, 0.9, "RadiationLike"),
    (-0.5, 0.3, "DarkEnergyMix"),
    (-0.06, 0.5, "DarkEnergyMix"),
    (0.2, 0.5, "Unclassified"),
    (-1.0, 0.5, "Unclassified"),
    (0.0, 0.5, "Unclassified"),
    (2.0, 0.0, "Unclassified"),
    (math.nan, 0.0, "Unclassified"),
    (-1.0, math.nan, "Unclassified"),
])
def test_classify_table(w, cs2, label):
    assert classify_regimes(w, cs2) == label


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
    # guarded_div(num, t1, t2) divides by t1 + t2 and holds it against
    # the larger of |t1| and |t2|
    assert guarded_div(1.0, 3.0, 1.0) == (0.25, False)
    q, pole = guarded_div(1.0, 1.0, -1.0 + 1e-13)
    assert math.isnan(q) and pole
    # the third den is 2**-37 (about 7.3e-12) of its scale: small, but
    # above DEN_GUARD, so it is divided by and is not a pole
    q, pole = guarded_div(np.array([1.0, 2.0, 3.0]),
                          np.array([1.5, 1.0, 1.0]),
                          np.array([0.5, -1.0, -(1.0 - 2.0**-37)]))
    assert q[0] == 0.5 and np.isnan(q[1]) and q[2] == 3.0 * 2.0**37
    assert pole.tolist() == [False, True, False]
    # a NaN denominator is not a pole: the NaN passes through
    q, pole = guarded_div(1.0, math.nan, 1.0)
    assert math.isnan(q) and not pole


def test_guarded_div_overflow_is_not_a_pole():
    # A term that overflowed gives NaN, not a pole. Two finite terms whose
    # sum overflows are rescaled by a power of two first, so 1/(1e308 +
    # 1e308) is its correctly rounded 5e-309, not 1/inf = 0.0.
    q, pole = guarded_div(np.array([1.0, 1.0, 1.0]),
                          np.array([math.inf, math.inf, 1e308]),
                          np.array([-math.inf, -1.0, 1e308]))
    assert np.isnan(q[:2]).all()
    assert q[2] == _exact_rational(lambda t: 1 / (t + t), 1e308)
    assert not pole.any()


def _w_exact_rational(F2, X0, F0, X):
    F = F0 + F2 * (X - X0) ** 2
    return F / (4 * X * F2 * (X - X0) - F)


def test_finite_terms_whose_sum_overflows_give_the_true_quotient():
    # 2 X F_X = 1.44e308 and -F = 6.4e307 are finite; their sum is not,
    # and dividing by that inf would give w = -0.0 with no pole and no NaN
    m = KineticModel(F2=1.0, X0=1.0, F0=-1e308)
    w, pole = eos_w(m, 6e153)
    assert not pole and w == -0.3076923076923076
    assert w == pytest.approx(
        _exact_rational(_w_exact_rational, 1.0, 1.0, -1e308, 6e153),
        rel=1e-15)
    assert w_perturbed_exact(replace(m, eps0=6e153 - 1.0)) == (w, False)
    # 2000 rows whose two terms are each near 1e308 and whose sum overflows
    rng = np.random.default_rng(20)
    n = 8000
    F2 = 10.0 ** rng.uniform(0.0, 3.0, n)
    X0 = 10.0 ** rng.uniform(-3.0, 3.0, n)
    t1 = rng.uniform(0.3, 1.7, n) * 1e308  # about 2 X F_X
    neg_F = rng.uniform(0.3, 1.2, n) * 1e308  # about -F
    d = np.sqrt(t1 / 4.0 / F2)  # X - X0, with 4 F2 X (X - X0) ~ t1
    X, F0 = X0 + d, -neg_F - F2 * d * d
    mm = KineticModel(F2=F2, X0=X0, F0=F0)
    with np.errstate(over="ignore"):
        terms = (2.0 * X * eval_F_X(mm, X), -eval_F(mm, X))
        rows = np.flatnonzero(np.isfinite(terms).all(axis=0)
                              & np.isinf(terms[0] + terms[1]))[:2000]
    assert rows.size == 2000
    w, pole = eos_w(KineticModel(F2=F2[rows], X0=X0[rows], F0=F0[rows]),
                    X[rows])
    assert not pole.any()
    expect = [_exact_rational(_w_exact_rational, *v)
              for v in zip(F2[rows], X0[rows], F0[rows], X[rows])]
    np.testing.assert_allclose(w, expect, rtol=1e-14, atol=0.0)


def test_values_and_pole_take_the_inputs_broadcast_shape():
    # array inputs over scalar denominator inputs: both results are arrays
    cs2, pole = cs2_thinwall_approx(
        replace(REF, X0=np.geomspace(1e-8, 10, 40)))
    assert cs2.shape == pole.shape == (40,) and not pole.any()
    cs2, pole = sound_speed_perturbed(
        KineticModel(F2=1.0, X0=np.array([1.0, 2.0]), eps0=0.0))
    assert cs2.shape == pole.shape == (2,)
    assert pole.tolist() == [True, True] and np.isnan(cs2).all()
    q, pole = guarded_div(np.array([1.0, 2.0]), 0.0, 0.0)
    assert q.shape == pole.shape == (2,) and pole.all() and np.isnan(q).all()
    # scalar inputs give numpy scalars
    q, pole = guarded_div(1.0, 3.0, 1.0)
    assert type(q) is np.float64 and type(pole) is np.bool_


def test_closed_forms_return_values_and_pole():
    # Each form over a grid that holds its poles: the array call equals the
    # scalar calls element by element, and NaN sits exactly at the poles.
    m = KineticModel(F2=1.0, X0=3.0, F0=63.0)
    X = np.linspace(0.0, 8.0, 17)  # poles: cs2 at X = 1, w at X = 6
    eps0 = np.array([0.0, 0.5, 1.0])

    def perturbed(fn):
        return lambda e: fn(KineticModel(F2=1.0, X0=1.0, eps0=e, F0=7.0))

    cases = [
        (lambda x: eos_w(m, x), X, X == 6.0),
        (lambda x: sound_speed(m, x), X, X == 1.0),
        (perturbed(w_perturbed_exact), eps0, [False, False, True]),
        (perturbed(sound_speed_perturbed), eps0, [True, False, False]),
        (lambda e: w_thinwall_approx(KineticModel(F2=2.0, X0=1.0, eps0=e)),
         eps0, [False, True, False]),
        (perturbed(cs2_thinwall_approx), eps0, [True, False, False]),
    ]
    for fn, grid, expect_pole in cases:
        values, pole = fn(grid)
        assert pole.dtype == bool and pole.shape == grid.shape
        assert pole.tolist() == list(expect_pole)
        assert np.isnan(values).tolist() == pole.tolist()
        for x, v, p in zip(grid.tolist(), values.tolist(), pole.tolist()):
            value, at_pole = fn(x)
            assert isinstance(value, float)
            assert isinstance(at_pole, (bool, np.bool_)) and at_pole == p
            assert math.isnan(value) if p else value == v


# Magnitudes over ±[1e-300, 1e300]: products of them overflow and underflow.
_MAG = st.floats(min_value=1e-300, max_value=1e300, **_pos)
_SIGNED = _MAG | _MAG.map(lambda v: -v)


def _model_of(F2, X0, F0, eps0=0.0):
    return KineticModel(F2=F2, X0=X0, F0=F0, eps0=eps0)


def _scaling_cs2(X0, eps1, a1, a):
    """scaling_cs2_of_a, with the pole rule applied to its denominator."""
    cs2 = scaling_cs2_of_a(ScalingSolution(X0=X0[0], eps1=eps1[0], a1=a1[0]), a)
    with np.errstate(all="ignore"):
        return cs2, guarded_div(1.0, *_scaling_terms(X0, eps1, a1, a))[1]


def _scaling_terms(X0, eps1, a1, a):
    return 2.0, 3.0 * (eps1 * (a / a1) ** -3.0)


def _w_terms(F2, X0, F0, X):
    m = _model_of(F2, X0, F0)
    return 2.0 * X * eval_F_X(m, X), -eval_F(m, X)


def _cs2_terms(F2, X0, F0, X):
    m = _model_of(F2, X0, F0)
    return eval_F_X(m, X), 2.0 * X * eval_F_XX(m, X)


def _perturbed_w_terms(F2, X0, F0, e):
    F = F0 + F2 * e * e
    return F, -4.0 * (X0 + e) * F2 * e


# (closed form, strategies of its arguments, its denominator's two terms)
_FORMS = {
    "eos_w": (lambda F2, X0, F0, X: eos_w(_model_of(F2, X0, F0), X),
              (_MAG, _MAG, _SIGNED, _SIGNED), _w_terms),
    "sound_speed": (lambda F2, X0, F0, X: sound_speed(_model_of(F2, X0, F0), X),
                    (_MAG, _MAG, _SIGNED, _SIGNED), _cs2_terms),
    "w_perturbed_exact": (
        lambda F2, X0, F0, e: w_perturbed_exact(_model_of(F2, X0, F0, e)),
        (_MAG, _MAG, _SIGNED, _MAG), _perturbed_w_terms),
    "sound_speed_perturbed": (
        lambda F2, X0, F0, e: sound_speed_perturbed(_model_of(F2, X0, F0, e)),
        (_MAG, _MAG, _SIGNED, _MAG), lambda F2, X0, F0, e: (e, 0.0)),
    "w_thinwall_approx": (
        lambda F2, X0, e: w_thinwall_approx(_model_of(F2, X0, -1.0, e)),
        (_MAG, _MAG, _MAG), lambda F2, X0, e: (4.0 * X0 * e / F2, -1.0)),
    "cs2_thinwall_approx": (
        lambda F2, X0, e: cs2_thinwall_approx(_model_of(F2, X0, -1.0, e)),
        (_MAG, _MAG, _MAG), lambda F2, X0, e: (e, e)),
    "scaling_cs2_of_a": (_scaling_cs2, (_MAG, _SIGNED, _MAG, _MAG),
                         _scaling_terms),
}


@pytest.mark.parametrize("name", _FORMS)
@given(data=st.data())
def test_closed_forms_over_the_float_range(name, data):
    # No call warns, a pole never has a non-finite term, and a value is
    # finite wherever its terms are finite and it is not a pole: every
    # NaN is a pole or an overflowed term, never a vanishing denominator
    # or a sum of finite terms that overflowed.
    form, strategies, terms = _FORMS[name]
    args = [np.array([data.draw(s)]) for s in strategies]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, pole = form(*args)
    with np.errstate(all="ignore"):
        finite = np.isfinite(np.broadcast_arrays(*terms(*args))).all(axis=0)
    assert not (pole & ~finite).any()
    assert (np.isfinite(values) | pole | ~finite).all()


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


@pytest.mark.parametrize("eps1", [1e-3, 1e-8, 1e-12, 1e-15, 1e-17])
def test_scaling_cs2_keeps_its_precision_as_the_deviation_decays(eps1):
    # At a = a1 the deviation is eps1 itself, and cs2 = eps1/(2 + 3 eps1)
    # exactly; forming X = X0 (1 + eps1) first would cancel in X - X0.
    s = ScalingSolution(X0=1e3, eps1=eps1, a1=2.0)
    d = Fraction(eps1)
    exact = d / (2 + 3 * d)
    cs2 = Fraction(float(scaling_cs2_of_a(s, 2.0)))
    assert abs(cs2 / exact - 1) <= Fraction(1, 10**15)


def test_scaling_cs2_pole_guarded():
    # X = X0 (1 + eps1) with eps1 = -2/3 puts 3X - X0 at zero
    s = ScalingSolution(X0=1.0, eps1=-2.0 / 3.0, a1=1.0)
    assert math.isnan(scaling_cs2_of_a(s, 1.0))


def test_scaling_cs2_scalar_takes_the_array_path():
    """A float a gives the bits of a one-element array, and an (a/a1)^-3
    that overflows gives NaN (exact) or inf (first order), not an
    OverflowError from Python's float power."""
    s = ScalingSolution(X0=1.0, eps1=1.0, a1=1.0)
    assert math.isnan(scaling_cs2_of_a(s, 1e-300))
    assert scaling_cs2_of_a(s, 1e-300, mode="first_order") == math.inf
    rng = np.random.default_rng(0)
    pairs = (10.0 ** rng.uniform(-150.0, 150.0, size=(20_000, 2))).tolist()
    for mode in ("exact", "first_order"):
        scalar, array = [], []
        for a, a1 in pairs:
            s = ScalingSolution(X0=1.0, eps1=0.5, a1=a1)
            scalar.append(scaling_cs2_of_a(s, a, mode))
            array.append(scaling_cs2_of_a(s, np.array([a]), mode)[0])
        assert np.array_equal(np.array(scalar).view(np.int64),
                              np.array(array).view(np.int64))


def test_scaling_cs2_matches_pointwise_form():
    s = ScalingSolution(X0=40.0, eps1=0.07, a1=1.5)
    a = np.geomspace(1.5, 150.0, 64)
    X = 40.0 * (1.0 + 0.07 * (a / 1.5) ** -3.0)
    m = KineticModel(F2=3.0, X0=40.0)
    assert np.allclose(scaling_cs2_of_a(s, a), sound_speed(m, X)[0], rtol=1e-12)
