"""Tests for the wall-pair profile and its delta-sequence diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kessence.errors import InvalidGrid
from kessence.walls import (
    ProfileSample,
    WallProfile,
    check_derivative,
    default_grid,
    grid_points,
    sample,
    sample_sharpness,
    sharpness,
)

_f = dict(allow_nan=False, allow_infinity=False)


def test_center_value_moderate_walls():
    # phi(0) = 2 pi tanh(b L / 2)
    p = WallProfile(b=3.0, L=3.0)
    assert float(p.phi(0.0)) == pytest.approx(6.281634685205941, rel=1e-14)
    assert float(p.phi(0.0)) == pytest.approx(
        2.0 * math.pi * math.tanh(4.5), rel=1e-14)


def test_center_value_sharp_walls_saturates():
    p = WallProfile(b=10.0, L=9.0)
    assert float(p.phi(0.0)) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_far_field_decays():
    p = WallProfile(b=2.0, L=4.0)
    assert abs(float(p.phi(50.0))) < 1e-12
    assert abs(float(p.phi(-50.0))) < 1e-12
    assert abs(float(p.dphi_dx(50.0))) < 1e-12


def test_profile_symmetry(rng):
    p = WallProfile(b=4.0, L=5.0)
    x = rng.uniform(-12.0, 12.0, size=200)
    assert np.allclose(p.phi(x), p.phi(-x), rtol=1e-13, atol=1e-300)
    assert np.allclose(p.dphi_dx(x), -p.dphi_dx(-x), rtol=1e-13, atol=1e-300)
    assert np.allclose(p.kinetic_magnitude(x), p.kinetic_magnitude(-x),
                       rtol=1e-13, atol=1e-300)


def test_derivative_sign_pattern():
    p = WallProfile(b=3.0, L=6.0)
    assert float(p.dphi_dx(0.0)) == 0.0
    xs = np.array([-5.0, -3.0, -0.5])
    assert np.all(p.dphi_dx(xs) > 0.0)
    assert np.all(p.dphi_dx(-xs) < 0.0)


def test_kinetic_peaks_at_half_separation():
    p = WallProfile(b=3.0, L=9.0)
    # for b L >> 1 the peak is (1/2) (pi b)^2 to machine precision
    assert float(p.kinetic_magnitude(4.5)) == pytest.approx(
        4.5 * math.pi ** 2, rel=1e-13)


def test_no_overflow_for_steep_walls():
    p = WallProfile(b=400.0, L=6.0)
    x = np.linspace(-12.0, 12.0, 1001)
    assert np.all(np.isfinite(p.phi(x)))
    assert np.all(np.isfinite(p.kinetic_magnitude(x)))


# ---------------------------------------------------------------------------
# sample and grids
# ---------------------------------------------------------------------------

def test_sample_matches_pointwise_evaluation():
    p = WallProfile(b=2.5, L=3.0)
    s = sample(p)
    # [-2L, 2L] at spacing L/200, which binds over 1/(10 b) here
    assert s.x[0] == -6.0 and s.x[-1] == 6.0 and len(s.x) == 801
    assert np.array_equal(s.phi, p.phi(s.x))
    assert np.array_equal(s.dphi_dx, p.dphi_dx(s.x))
    assert np.array_equal(s.X_mag, 0.5 * s.dphi_dx * s.dphi_dx)


def test_default_grid_resolves_wall():
    lo, hi, spacing = default_grid(WallProfile(b=10.0, L=9.0))
    assert (lo, hi) == (-18.0, 18.0)
    assert spacing == pytest.approx(0.01)
    lo, hi, spacing = default_grid(WallProfile(b=0.1, L=2.0))
    # L/200 binds when the wall is thick
    assert spacing == pytest.approx(0.01)
    # grid_points counts the points sample takes
    for p in (WallProfile(b=10.0, L=9.0), WallProfile(b=100.0, L=9.27),
              WallProfile(b=0.1, L=2.0)):
        assert grid_points(p) == sample(p).x.size


def test_profile_validation():
    for b, L in [
        (0.0, 1.0),
        (1.0, -3.0),
        # (pi b)^2 overflows, whether X_mag(L/2) does (b L = 1e4) or not
        (1e308, 1.0),
        (1e200, 1e-196),
        # X_mag(L/2) is 0: L/2 rounds to 0, the sech^2 terms cancel, or
        # X_mag underflows
        (1.0, 5e-324),
        (1.0, 1e-20),
        (1e-300, 1e5),
    ]:
        # a ValueError, not a numpy RuntimeWarning (which the suite makes
        # an error too)
        with pytest.raises(ValueError):
            WallProfile(b=b, L=L)


def test_kinetic_scale_is_spike_height_at_wall_centre():
    p = WallProfile(b=10.0, L=9.0)
    assert p.kinetic_scale == float(p.kinetic_magnitude(4.5))
    assert p.kinetic_scale == pytest.approx(50.0 * math.pi ** 2, rel=1e-12)
    # the largest b whose (pi b)^2 is finite
    assert WallProfile(b=4.2678e153, L=1e-154).kinetic_scale < math.inf


@pytest.mark.parametrize("b,L", [(1e10, 9.0), (1.0, 1e308)])
def test_grid_over_row_cap_is_refused(b, L):
    # 3.6e12 points at b L = 9e10; at L = 1e308 the span 4L overflows
    p = WallProfile(b=b, L=L)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_ROWS"):
            default_grid(p)
        with pytest.raises(ValueError, match="MAX_ROWS"):
            grid_points(p)
        with pytest.raises(ValueError, match="MAX_ROWS"):
            sample(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------

def test_sharpness_reference_wall():
    r = sharpness(WallProfile(b=10.0, L=9.0))
    assert r.peak_value == pytest.approx(50.0 * math.pi ** 2, rel=1e-9)
    assert r.peak_positions == (-4.5, 4.5)
    # FWHM of the sech^4 spike: 2 arccosh(2^{1/4}) / b
    assert r.half_width == pytest.approx(2.0 * math.acosh(2.0 ** 0.25) / 10.0,
                                         rel=1e-2)
    assert r.integral == pytest.approx(4.0 / 3.0 * math.pi ** 2 * 10.0,
                                       rel=1e-8)


def test_sharpness_moderate_wall():
    r = sharpness(WallProfile(b=3.0, L=9.0))
    assert r.peak_value == pytest.approx(44.41321980490211, rel=1e-12)
    assert r.peak_positions == (-4.5, 4.5)


def test_sharpness_delta_sequence_ratios():
    r5 = sharpness(WallProfile(b=5.0, L=9.0))
    r10 = sharpness(WallProfile(b=10.0, L=9.0))
    assert r10.peak_value / r5.peak_value == pytest.approx(4.0, rel=1e-2)
    assert r10.integral / r5.integral == pytest.approx(2.0, rel=1e-2)
    assert r5.half_width / r10.half_width == pytest.approx(2.0, rel=2e-2)


def test_sharpness_width_tracks_inverse_steepness():
    widths = [sharpness(WallProfile(b=b, L=8.0)).half_width
              for b in (2.0, 4.0, 8.0)]
    scaled = [w * b for w, b in zip(widths, (2.0, 4.0, 8.0))]
    assert max(scaled) / min(scaled) < 1.02


def test_sharpness_of_a_written_sample():
    p = WallProfile(b=10.0, L=3.0)
    s = sample(p)
    assert s.x.size == 400 * 3 + 1  # [-2L, 2L] at spacing 1/(10 b)
    assert sample_sharpness(s) == sharpness(p)
    # a sample built by hand must straddle x = 0
    right = s.x > 0.0
    half = ProfileSample(x=s.x[right], phi=s.phi[right],
                         dphi_dx=s.dphi_dx[right], X_mag=s.X_mag[right])
    with pytest.raises(InvalidGrid):
        sample_sharpness(half)


@settings(max_examples=40)
@given(st.floats(min_value=1.0, max_value=12.0, **_f),
       st.floats(min_value=2.0, max_value=10.0, **_f))
def test_sharpness_bounds_and_positions(b, L):
    r = sharpness(WallProfile(b=b, L=L))
    cap = 0.5 * (math.pi * b) ** 2
    assert 0.0 < r.peak_value <= cap * (1.0 + 1e-12)
    left, right = r.peak_positions
    assert abs(right - 0.5 * L) <= 1.0 / b + 0.1
    assert abs(left + 0.5 * L) <= 1.0 / b + 0.1
    assert r.half_width > 0.0
    assert r.integral > 0.0


# ---------------------------------------------------------------------------
# derivative check
# ---------------------------------------------------------------------------

def test_check_derivative_moderate():
    c = check_derivative(WallProfile(b=3.0, L=6.0), 3.0, 1e-6)
    assert c.abs_error < 1e-6
    assert c.analytic == pytest.approx(c.numeric, rel=1e-8)


def test_check_derivative_sharp():
    c = check_derivative(WallProfile(b=10.0, L=9.0), 4.5, 1e-6)
    assert c.abs_error < 1e-4


def test_check_derivative_requires_positive_step():
    with pytest.raises(ValueError):
        check_derivative(WallProfile(b=1.0, L=1.0), 0.0, 0.0)


@settings(max_examples=40)
@given(st.floats(min_value=0.5, max_value=8.0, **_f),
       st.floats(min_value=1.0, max_value=9.0, **_f),
       st.floats(min_value=-6.0, max_value=6.0, **_f))
def test_check_derivative_converges(b, L, x):
    p = WallProfile(b=b, L=L)
    coarse = check_derivative(p, x, 1e-3).abs_error
    fine = check_derivative(p, x, 1e-5).abs_error
    # second-order stencil: error drops ~1e4 going from 1e-3 to 1e-5,
    # down to rounding noise
    assert fine <= coarse + 1e-9
