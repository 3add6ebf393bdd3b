"""Soliton/anti-soliton wall pair: tanh profile and its kinetic content.

The field configuration is a pair of walls of steepness b separated by L,

    phi(x) = pi * [tanh(b (x + L/2)) - tanh(b (x - L/2))],

a box-like bump of height ~ 2 pi for b L >> 1. The spatial kinetic
magnitude |X| ~ (1/2) (dphi/dx)^2 concentrates into two spikes of height
(1/2) (pi b)^2 at x = +-L/2 whose width shrinks as 1/b and whose integral
grows as b: sharpening the walls drives the spikes toward a pair of delta
functions. `sharpness` measures exactly those three signatures.

Sign convention: for a static spatial profile the signed kinetic variable
is negative (X = -(1/2)(dphi/dx)^2 under the (+,-,-,-) metric); this module
returns the magnitude and leaves the sign to the caller. b and x are
treated as dimensionless (normalized distance axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MAX_ROWS, InvalidGrid

PROFILE_AMPLITUDE = math.pi  # fixed: ties the bump height to ~ 2*pi


def _sech2(z):
    """sech(z)^2 without overflow for large |z| (decays like 4 e^{-2|z|})."""
    za = np.abs(z)
    e = np.exp(-za)
    s = 2.0 * e / (1.0 + e * e)
    return s * s


@dataclass(frozen=True)
class WallProfile:
    """Wall pair geometry: steepness b > 0, separation L > 0, with a
    kinetic scale X_mag(L/2) > 0 and a finite spike bound (pi b)^2.

    b and L may be scalars or numpy arrays that broadcast together, one wall
    per element: every wall must pass, and `kinetic_scale` holds one value
    per wall. `default_grid`, `sample` and `sharpness` take a single wall.
    """

    b: float
    L: float

    def __post_init__(self):
        if not np.all(self.b > 0):
            raise ValueError("wall steepness b must be > 0")
        if not np.all(self.L > 0):
            raise ValueError("wall separation L must be > 0")
        # (pi b)^2 >= 2 X_mag keeps X_mag pair sums finite; the rule tests
        # for overflow and underflow, so neither may warn
        with np.errstate(all="ignore"):
            steep = math.pi * self.b
            usable = (steep * steep < np.inf) & (self.kinetic_scale > 0.0)
        if not usable.all():
            i = np.argmin(usable)  # the first unusable wall, in C order
            b, L = (float(np.broadcast_to(v, usable.shape).flat[i])
                    for v in (self.b, self.L))
            raise ValueError(f"the wall WallProfile(b={b!r}, L={L!r}) has no "
                             "usable kinetic scale: X_mag(L/2) must be > 0 "
                             "and (pi b)^2 finite")

    @cached_property
    def kinetic_scale(self):
        """X_mag(L/2), the spike height at each wall centre (computed once)."""
        return self.kinetic_magnitude(self.L / 2.0)

    def phi(self, x):
        """Field value; even in x, phi(0) = 2 pi tanh(b L / 2)."""
        half = 0.5 * self.L
        return PROFILE_AMPLITUDE * (np.tanh(self.b * (x + half))
                                    - np.tanh(self.b * (x - half)))

    def dphi_dx(self, x):
        """Analytic derivative pi b [sech^2(b(x+L/2)) - sech^2(b(x-L/2))]; odd in x."""
        half = 0.5 * self.L
        return PROFILE_AMPLITUDE * self.b * (_sech2(self.b * (x + half))
                                             - _sech2(self.b * (x - half)))

    def kinetic_magnitude(self, x):
        """|X| = (1/2) (dphi/dx)^2; peaks at ~ (1/2)(pi b)^2 near x = +-L/2."""
        g = self.dphi_dx(x)
        return 0.5 * g * g


@dataclass(frozen=True)
class ProfileSample:
    """Uniform-grid sample of the profile and its kinetic magnitude."""

    x: np.ndarray
    phi: np.ndarray
    dphi_dx: np.ndarray
    X_mag: np.ndarray


class SharpnessReport(NamedTuple):
    """One row of the sharpness table after its b and L columns."""
    peak_value: float
    peak_position: float
    half_width: float
    integral: float


class DerivativeCheck(NamedTuple):
    analytic: float
    numeric: float
    abs_error: float


def default_grid(profile: WallProfile) -> tuple[float, float, int]:
    """The sampling grid as `np.linspace` arguments (x_min, x_max, points).

    [-2L, 2L] in ceil(4L / spacing) equal intervals, spacing min(1/(10 b),
    L/200) at most: it resolves the wall thickness (1/b) and separation (L).
    Raises ValueError when the grid would hold more than MAX_ROWS points, so
    b L may be at most about 25 000.
    """
    spacing = min(1.0 / (10.0 * profile.b), profile.L / 200.0)
    # ceil(4L / spacing) + 1 points, counted without the division that overflows
    if not 4.0 * profile.L <= (MAX_ROWS - 1) * spacing:
        raise ValueError(f"{profile} would sample over MAX_ROWS={MAX_ROWS} points")
    return (-2.0 * profile.L, 2.0 * profile.L,
            int(math.ceil(4.0 * profile.L / spacing)) + 1)


def sample(profile: WallProfile) -> ProfileSample:
    """Sample phi, dphi/dx and X_mag on the profile's `default_grid`; a grid
    over MAX_ROWS points raises ValueError before anything is allocated.
    """
    x = np.linspace(*default_grid(profile))
    dphi = profile.dphi_dx(x)
    return ProfileSample(x=x, phi=profile.phi(x), dphi_dx=dphi,
                         X_mag=0.5 * dphi * dphi)


def sharpness(profile: WallProfile) -> SharpnessReport:
    """`sample_sharpness` of the profile's `sample`."""
    return sample_sharpness(sample(profile))


def sample_sharpness(s: ProfileSample) -> SharpnessReport:
    """Delta-sequence metrics of the kinetic spikes in a profile sample: the
    peak value of X_mag and its x > 0 position, that spike's full width at
    half maximum, and the trapezoidal integral of X_mag over the grid. Each
    half-level crossing interpolates from the nearest point below half
    toward the spike, or is the grid edge where that side has no such point.
    The grid must straddle x = 0.
    """
    pos = s.x > 0
    if not pos.any() or pos.all():
        raise InvalidGrid("sharpness grid must straddle x = 0 (walls sit at +-L/2)")
    i_peak = np.flatnonzero(pos)[np.argmax(s.X_mag[pos])]
    peak_value = float(s.X_mag[i_peak])
    half = 0.5 * peak_value
    below = np.flatnonzero(s.X_mag < half)
    k = np.searchsorted(below, i_peak)  # below[k - 1] < i_peak < below[k]
    x_lo = _crossing(s, below[k - 1], +1, half) if k > 0 else s.x[0]
    x_hi = _crossing(s, below[k], -1, half) if k < below.size else s.x[-1]
    return SharpnessReport(
        peak_value=peak_value,
        peak_position=float(s.x[i_peak]),
        half_width=float(x_hi - x_lo),
        integral=float(np.trapezoid(s.X_mag, s.x)),
    )


def _crossing(s: ProfileSample, j, inward, level):
    """Where X_mag crosses level between the point j below it and the
    point j + inward, on the spike's side, by linear interpolation."""
    x, y, i = s.x, s.X_mag, j + inward
    frac = (y[i] - level) / (y[i] - y[j])
    return x[i] + frac * (x[j] - x[i])


def check_derivative(profile: WallProfile, x: float, h: float) -> DerivativeCheck:
    """Centered finite difference of phi versus the analytic derivative."""
    if not h > 0:
        raise ValueError("step h must be > 0")
    analytic = float(profile.dphi_dx(x))
    numeric = float((profile.phi(x + h) - profile.phi(x - h)) / (2.0 * h))
    return DerivativeCheck(analytic=analytic, numeric=numeric,
                           abs_error=abs(analytic - numeric))
