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
    kinetic scale X_mag(L/2) > 0 and a finite spike bound (pi b)^2."""

    b: float
    L: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError("wall steepness b must be > 0")
        if not self.L > 0:
            raise ValueError("wall separation L must be > 0")
        # (pi b)^2 >= 2 X_mag keeps X_mag pair sums finite; Python floats don't warn
        steep = math.pi * float(self.b)
        if not (steep * steep < math.inf and self.kinetic_scale > 0.0):
            raise ValueError(f"the wall {self} has no usable kinetic scale: "
                             "X_mag(L/2) must be > 0 and (pi b)^2 finite")

    @property
    def kinetic_scale(self) -> float:
        """X_mag(L/2), the spike height at the wall centre."""
        return float(self.kinetic_magnitude(self.L / 2.0))

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
    peak_value: float
    peak_positions: tuple[float, float]
    half_width: float
    integral: float


class DerivativeCheck(NamedTuple):
    analytic: float
    numeric: float
    abs_error: float


def default_grid(profile: WallProfile) -> tuple[float, float, float]:
    """The sampling grid: [-2L, 2L] at spacing min(1/(10 b), L/200).

    Resolves both the wall thickness (1/b) and the separation (L).  Raises
    ValueError when the grid would hold more than MAX_ROWS points, so b L
    may be at most about 25 000.
    """
    spacing = min(1.0 / (10.0 * profile.b), profile.L / 200.0)
    # ceil(4L / spacing) + 1 points, counted without the division that overflows
    if not 4.0 * profile.L <= (MAX_ROWS - 1) * spacing:
        raise ValueError(f"{profile} would sample over MAX_ROWS={MAX_ROWS} points")
    return -2.0 * profile.L, 2.0 * profile.L, spacing


def grid_points(profile: WallProfile) -> int:
    """The number of points `sample` takes on the profile's `default_grid`.

    The grid takes ceil((x_max - x_min) / spacing) equal intervals, so both
    ends are sample points and the spacing is at most the grid's; a grid
    over MAX_ROWS points raises ValueError.
    """
    x_min, x_max, spacing = default_grid(profile)
    return int(math.ceil((x_max - x_min) / spacing)) + 1


def sample(profile: WallProfile) -> ProfileSample:
    """Sample phi, dphi/dx and X_mag at the `grid_points` of the profile's
    `default_grid`; a grid over MAX_ROWS points raises ValueError before
    anything is allocated.
    """
    x_min, x_max, _ = default_grid(profile)
    x = np.linspace(x_min, x_max, grid_points(profile))
    dphi = profile.dphi_dx(x)
    return ProfileSample(x=x, phi=profile.phi(x), dphi_dx=dphi,
                         X_mag=0.5 * dphi * dphi)


def sharpness(profile: WallProfile) -> SharpnessReport:
    """`sample_sharpness` of the profile's `sample`."""
    return sample_sharpness(sample(profile))


def sample_sharpness(s: ProfileSample) -> SharpnessReport:
    """Delta-sequence metrics of the kinetic spikes in a profile sample.

    Returns the peak  value of X_mag, the two peak locations, the full
    width at half maximum of the positive-x peak (linear interpolation of
    the half-level crossings), and the trapezoidal integral of X_mag over
    the grid. The grid must straddle x = 0.
    """
    pos = s.x > 0
    if not pos.any() or pos.all():
        raise InvalidGrid("sharpness grid must straddle x = 0 (walls sit at +-L/2)")
    i_right = np.flatnonzero(pos)[np.argmax(s.X_mag[pos])]
    i_left = np.argmax(s.X_mag[~pos])  # negative-x block starts at index 0
    peak_value = float(s.X_mag[i_right])

    half = 0.5 * peak_value
    x_lo = _crossing(s.x, s.X_mag, i_right, half, -1)
    x_hi = _crossing(s.x, s.X_mag, i_right, half, +1)
    integral = float(np.trapezoid(s.X_mag, s.x))
    return SharpnessReport(
        peak_value=peak_value,
        peak_positions=(float(s.x[i_left]), float(s.x[i_right])),
        half_width=x_hi - x_lo,
        integral=integral,
    )


def _crossing(x, y, i_peak, level, direction):
    """Walk from the peak until y drops below level; interpolate the crossing."""
    i = i_peak
    while 0 < i < len(x) - 1 and y[i + direction] >= level:
        i += direction
    j = i + direction
    if j < 0 or j >= len(x):
        return float(x[i])
    # linear interpolation between (x[i], y[i]) and (x[j], y[j])
    frac = (y[i] - level) / (y[i] - y[j])
    return float(x[i] + frac * (x[j] - x[i]))


def check_derivative(profile: WallProfile, x: float, h: float) -> DerivativeCheck:
    """Centered finite difference of phi versus the analytic derivative."""
    if not h > 0:
        raise ValueError("step h must be > 0")
    analytic = float(profile.dphi_dx(x))
    numeric = float((profile.phi(x + h) - profile.phi(x - h)) / (2.0 * h))
    return DerivativeCheck(analytic=analytic, numeric=numeric,
                           abs_error=abs(analytic - numeric))
