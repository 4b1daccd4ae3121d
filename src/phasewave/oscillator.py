"""Oscillator parameters, the unit scales they fix, and phase-plane geometry.

The linear term of the potential only shifts the equilibrium to
xbar = x + alpha/(m omega^2).  :class:`OscillatorParams` forms every unit
scale once, as products and quotients of square roots: the widths
sigma_x = sqrt(hbar/(m omega)) and sigma_p = sqrt(m hbar omega), the radius
scale rho_scale = sqrt(hbar omega/m), the value scale 1/(pi hbar), the area
hbar and the shift, (alpha/omega)/sigma_p widths.  The kernels and rules
run in xi = xbar/sigma_x and eta = p/sigma_p, with eps = (xi^2 + eta^2)/2
and dx dp = hbar dxi deta; units stay at the boundary: the polar map
rho = rho_scale hypot(xi, eta), the marginal windows, grids and export.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError

TWO_PI = 2.0 * math.pi


def _positive_real(value) -> bool:
    """True for a finite positive number; a bool is not one."""
    return not isinstance(value, bool) and math.isfinite(value) and value > 0.0


#: Largest accepted shift in widths: a double x that far out still resolves
#: xi = (x + shift)/sigma_x to 2^-30, a tenth of the quadrature tolerance.
MAX_SHIFT_WIDTHS = 2.0**23


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, angular frequency, action quantum and linear-shift coefficient.

    Construction sets the read-only scales of the module docstring and
    raises ``ValueError`` naming the first that does not fit in a double.
    """

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar"):
            v = getattr(self, name)
            if not _positive_real(v):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if isinstance(self.alpha, bool) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        root_m, root_w, root_h = math.sqrt(self.m), math.sqrt(self.omega), math.sqrt(self.hbar)
        for name, v in (("sigma_x", root_h / root_m / root_w),
                        ("sigma_p", root_m * root_h * root_w),
                        ("rho_scale", root_h * root_w / root_m),
                        ("value_scale", 1.0 / (math.pi * self.hbar)),
                        ("area", float(self.hbar))):
            if not (math.isfinite(v) and v >= sys.float_info.min):
                raise ValueError(f"the scale {name} = {v!r} is not a finite normal double")
            object.__setattr__(self, name, v)
        widths = self.alpha / self.omega / self.sigma_p
        shift = widths * self.sigma_x
        if not (abs(widths) <= MAX_SHIFT_WIDTHS and math.isfinite(shift)):
            raise ValueError(f"the scale shift = {shift!r} is {widths!r} widths sigma_x, "
                             f"not finite or beyond {MAX_SHIFT_WIDTHS:.0f}")
        object.__setattr__(self, "shift", shift)


NATURAL_UNITS = OscillatorParams(m=1.0, omega=1.0, hbar=1.0, alpha=0.0)


def coordinate(values, name):
    """``values`` as a float array; raises ``DataError`` naming the coordinate if it holds a NaN."""
    vals = np.asarray(values, dtype=float)
    if np.isnan(vals).any():
        raise DataError(f"coordinate {name} is NaN")
    return vals


def _first_entry(values, bad):
    """The first entry of the array ``values`` where ``bad`` holds, as a Python scalar."""
    return values[np.unravel_index(np.argmax(bad), bad.shape)].item()


def _real_values(value, name):
    """``value`` as a float array; raises ``TypeError`` naming it if it holds no real numbers.

    A complex array would lose its imaginary part, and a string array would
    be parsed, in the cast to float.
    """
    vals = np.asarray(value)
    if vals.dtype.kind not in "biuf":  # bool, signed and unsigned int, float
        raise TypeError(f"{name} must be real, got a {vals.dtype} array")
    return vals.astype(float)


def _require_finite(value, name):
    """``value`` as a float, or an array of values as a float array.

    Raises ``DataError`` naming it if it, or an entry, is NaN or infinite,
    and for a bool or a bool array; ``TypeError`` for an array that does not
    hold real numbers.
    """
    if np.ndim(value) == 0:
        if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
            raise DataError(f"{name} must be finite, got {value}")
        return float(value)
    if np.asarray(value).dtype == bool:
        raise DataError(f"{name} must be finite, got a bool array")
    vals = _real_values(value, name)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise DataError(f"{name} must be finite, got {_first_entry(vals, bad)} in an array")
    return vals


def _require_finite_scalar(value, name):
    """``value`` as one finite float; an array, even of one entry, raises ``TypeError``."""
    if np.ndim(value) != 0:
        raise TypeError(f"{name} must be one number, got an array of shape {np.shape(value)}")
    return _require_finite(value, name)


def _phase(rate, t):
    """The wave phase ``rate * t``, for one time or an array of them.

    Raises ``DataError`` naming t if a phase is not finite: a finite t can
    still take it to inf, where no angle is defined.
    """
    t = _real_values(t, "t")
    with np.errstate(over="ignore"):
        phase = rate * t
    bad = ~np.isfinite(phase)
    if bad.any():
        raise DataError(f"t = {_first_entry(t, bad)!r} takes the wave phase {rate!r} * t "
                        f"to {_first_entry(phase, bad)!r}")
    return phase


@dataclass(frozen=True)
class PhasePoint:
    """A location (x, p) in unshifted phase-plane coordinates."""

    x: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "x", _require_finite_scalar(self.x, "x"))
        object.__setattr__(self, "p", _require_finite_scalar(self.p, "p"))


def xi_of(params: OscillatorParams, x):
    """The position in widths, xi = (x + shift) / sigma_x, as a float array."""
    return (coordinate(x, "x") + params.shift) / params.sigma_x


def polar_from_xy(params: OscillatorParams, x, p):
    """(x, p) -> (rho, phi) = (rho_scale hypot(xi, eta), atan2(eta, xi) in [0, 2pi), 0 at 0)."""
    xi, eta = xi_of(params, x), coordinate(p, "p") / params.sigma_p
    phi = np.arctan2(eta, xi, out=np.empty(np.broadcast(xi, eta).shape))
    rho = np.hypot(xi, eta)
    rho *= params.rho_scale
    # arctan2 lies in [-pi, pi]: adding 2pi to a negative angle rounds as
    # ``% TWO_PI`` would.  Adding it to a signed zero too gives 2pi, and so
    # can adding it to a tiny negative angle; both wrap to +0.0.
    np.add(phi, TWO_PI, out=phi, where=phi <= 0.0)
    phi[(phi >= TWO_PI) | (rho == 0.0)] = 0.0
    return rho, phi


def xy_from_polar(params: OscillatorParams, rho, phi):
    """Vectorized (rho, phi) -> (x, p) inverse of :func:`polar_from_xy`."""
    r = np.asarray(rho, dtype=float) / params.rho_scale
    x = params.sigma_x * r * np.cos(phi) - params.shift
    p = params.sigma_p * r * np.sin(phi)
    return x, p


def energy_xy(params: OscillatorParams, x, p):
    """Vectorized dimensionless energy eps = (xi^2 + eta^2)/2 in units of hbar omega.

    The squares are products, which round the same for a 0-d point as for
    the point inside an array; numpy's scalar power does not.  Far enough
    out the energy overflows to inf, without a warning.
    """
    with np.errstate(over="ignore"):
        xi = xi_of(params, x)
        eta = coordinate(p, "p") / params.sigma_p
        return 0.5 * (xi * xi + eta * eta)
