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

from .errors import DataError, _array, _first_entry, _real, _reals, _require_finite, coordinate

TWO_PI = 2.0 * math.pi


#: Largest accepted shift in widths: a double x that far out still resolves
#: xi = (x + shift)/sigma_x to 2^-30, a tenth of the quadrature tolerance.
MAX_SHIFT_WIDTHS = 2.0**23


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, angular frequency, action quantum and linear-shift coefficient.

    Each field is kept as a float.  Construction sets the read-only scales
    of the module docstring and raises ``DataError``, a ``ValueError``,
    naming the first that does not fit in a double.
    """

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar", "alpha"):
            object.__setattr__(self, name, _real(getattr(self, name), name, name != "alpha"))
        root_m, root_w, root_h = math.sqrt(self.m), math.sqrt(self.omega), math.sqrt(self.hbar)
        for name, v in (("sigma_x", root_h / root_m / root_w),
                        ("sigma_p", root_m * root_h * root_w),
                        ("rho_scale", root_h * root_w / root_m),
                        ("value_scale", 1.0 / (math.pi * self.hbar)),
                        ("area", self.hbar)):
            if not (math.isfinite(v) and v >= sys.float_info.min):
                raise DataError(f"the scale {name} = {v!r} is not a finite normal double")
            object.__setattr__(self, name, v)
        widths = self.alpha / self.omega / self.sigma_p
        shift = widths * self.sigma_x
        if not (abs(widths) <= MAX_SHIFT_WIDTHS and math.isfinite(shift)):
            raise DataError(f"the scale shift = {shift!r} is {widths!r} widths sigma_x, "
                            f"not finite or beyond {MAX_SHIFT_WIDTHS:.0f}")
        object.__setattr__(self, "shift", shift)


NATURAL_UNITS = OscillatorParams(m=1.0, omega=1.0, hbar=1.0, alpha=0.0)


def _phase(rate, t):
    """The wave phase ``rate * t``, for one time or an array of them.

    Raises ``DataError`` naming t if a phase is not finite: a finite t can
    still take it to inf, where no angle is defined.
    """
    t = _reals(t, "t")
    with np.errstate(over="ignore"):
        phase = rate * t
    bad = ~np.isfinite(phase)
    if bad.any():
        raise DataError(f"t = {_first_entry(t, bad)!r} takes the wave phase {rate!r} * t "
                        f"to {_first_entry(phase, bad)!r}")
    return phase


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


@np.errstate(over="ignore", invalid="ignore")  # _far forms again what overflows on the way
def xy_from_polar(params: OscillatorParams, rho, phi):
    """Vectorized (rho, phi) -> (x, p) inverse of :func:`polar_from_xy`.

    ``rho`` is a coordinate and ``phi`` finite.  An infinite radius on a
    ray where sin(phi) = 0 lies on that ray, at p = 0.  A finite radius
    whose x or p is a double is mapped to it, without a warning, even where
    rho / rho_scale or sigma (rho / rho_scale) is past the doubles.
    """
    rho, phi = coordinate(rho, "rho"), _require_finite(phi, "phi")
    r, cos, sin = rho / params.rho_scale, np.cos(phi), np.sin(phi)
    xr, pr = params.sigma_x * r, params.sigma_p * r  # of rho's shape, so checked cheaply
    if not (np.isinf(xr).any() or np.isinf(pr).any()):
        return xr * cos - params.shift, pr * sin
    if np.isinf(pr).any():  # where sin(phi) = 0, pr * sin would be inf * 0 = NaN
        pr = np.where(sin == 0.0, 0.0, pr)
    return (_far(params, rho, params.sigma_x, cos, xr * cos - params.shift, params.shift),
            _far(params, rho, params.sigma_p, sin, pr * sin))


def _far(params: OscillatorParams, rho, sigma, trig, near, shift=0.0):
    """``near``, each infinite entry at a finite rho formed again without overflow on the way.

    Such an entry is rho (sigma / rho_scale) trig - shift, with the
    mantissas and binary exponents of rho, sigma and rho_scale combined
    apart, so that only the last step, which sets the exponent, can
    overflow.  Every other entry keeps its bits.  It runs inside
    :func:`xy_from_polar`'s ``errstate``: an infinite rho's entry, inf * 0
    where trig = 0, is formed and dropped.
    """
    (mr, er), (ms, es), (mq, eq) = np.frexp(rho), math.frexp(sigma), math.frexp(params.rho_scale)
    far = np.ldexp(mr * ms / mq * trig, er + es - eq) - shift
    return np.where(np.isinf(near) & np.isfinite(rho), far, near)


def _polar_grid(W, params: OscillatorParams, rho, phi, t):
    """Any field W on the polar tensor grid of ``rho`` and ``phi``, as (radial, angular).

    Both are float arrays and radial[:, None] * angular is W(rho_i, phi_j, t)
    for 1-d ``rho`` and ``phi``; every field is read on a polar grid here.
    Either may also be one number, which adds no axis.  A field with
    ``polar_factors`` gives its factors broadcast to the nodes: the radial
    one to the radii, the angular one to the angles, or to the whole grid
    if it has more axes than the angles (a rotation of a bare callable
    gives such a factor).  Any other callable gives ones on the radii and
    its values at the (x, p) image of the grid as the angular factor.
    """
    rho, phi = _array(rho, "rho"), _array(phi, "phi")
    if not hasattr(W, "polar_factors"):
        x, p = xy_from_polar(params, rho.reshape(rho.shape + (1,) * phi.ndim), phi)
        return np.ones(rho.shape), np.broadcast_to(np.asarray(W(x, p, t), dtype=float), x.shape)
    radial, angular = W.polar_factors(rho, phi, t)
    angular = np.asarray(angular, dtype=float)
    nodes = phi.shape if angular.ndim <= phi.ndim else rho.shape + phi.shape
    return (np.broadcast_to(np.asarray(radial, dtype=float), rho.shape),
            np.broadcast_to(angular, nodes))


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
