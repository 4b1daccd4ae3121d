"""Oscillator parameters and phase-plane geometry.

The linear term of the potential only shifts the equilibrium: with
xbar = x + alpha/(m omega^2) the dynamics are those of a centered
oscillator.  The phase plane (xbar, p) maps to scaled coordinates
u = omega xbar, v = p/m and then to polar (rho, phi); the radius carries
the energy through eps = m rho^2 / (2 hbar omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, angular frequency, action quantum and linear-shift coefficient."""

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def shift(self) -> float:
        """Equilibrium offset alpha/(m omega^2) between x and xbar."""
        return self.alpha / (self.m * self.omega**2)


NATURAL_UNITS = OscillatorParams(m=1.0, omega=1.0, hbar=1.0, alpha=0.0)


def _require_finite(value, name):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class PhasePoint:
    """A location (x, p) in unshifted phase-plane coordinates."""

    x: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "x", _require_finite(self.x, "x"))
        object.__setattr__(self, "p", _require_finite(self.p, "p"))


@dataclass(frozen=True)
class PolarPoint:
    """Polar image (rho, phi) of a phase point; phi normalized to [0, 2pi)."""

    rho: float
    phi: float

    def __post_init__(self):
        rho = _require_finite(self.rho, "rho")
        phi = _require_finite(self.phi, "phi")
        if rho < 0.0:
            raise ValueError(f"rho must be non-negative, got {rho}")
        phi = phi % TWO_PI
        if phi >= TWO_PI:  # rounding of tiny negatives can land exactly on 2pi
            phi = 0.0
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)


def shifted_x(params: OscillatorParams, x):
    """Shifted coordinate xbar = x + alpha/(m omega^2)."""
    return x + params.shift


def polar_from_xy(params: OscillatorParams, x, p):
    """Vectorized (x, p) -> (rho, phi) with phi in [0, 2pi), phi(origin) = 0."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    shape = np.broadcast(x, p).shape
    u, v, phi = np.empty(shape), np.empty(shape), np.empty(shape)
    np.add(x, params.shift, out=u)
    u *= params.omega
    np.divide(p, params.m, out=v)
    np.arctan2(v, u, out=phi)
    rho = np.hypot(u, v, out=u)
    # arctan2 lies in [-pi, pi]: adding 2pi to a negative angle rounds as
    # ``% TWO_PI`` would, and adding 0.0 to -0.0 gives +0.0.  A tiny
    # negative angle can round up to 2pi, which wraps to 0.
    np.multiply(phi < 0.0, TWO_PI, out=v)
    phi += v
    phi[(phi >= TWO_PI) | (rho == 0.0)] = 0.0
    return rho[()], phi


def xy_from_polar(params: OscillatorParams, rho, phi):
    """Vectorized (rho, phi) -> (x, p) inverse of :func:`polar_from_xy`."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x = rho / params.omega * np.cos(phi) - params.shift
    p = params.m * rho * np.sin(phi)
    return x, p


def to_polar(params: OscillatorParams, pt: PhasePoint) -> PolarPoint:
    """Polar image of a phase point.

    The angle lies in [0, 2pi) with the half-plane branch fixed by the sign
    of xbar (angles for xbar < 0 fall in (pi/2, 3pi/2)); at rho = 0 the
    angle is defined to be 0.
    """
    rho, phi = polar_from_xy(params, pt.x, pt.p)
    return PolarPoint(float(rho), float(phi))


def from_polar(params: OscillatorParams, pt: PolarPoint) -> PhasePoint:
    """Phase point x = (rho/omega) cos(phi) - alpha/(m omega^2), p = m rho sin(phi)."""
    x, p = xy_from_polar(params, pt.rho, pt.phi)
    return PhasePoint(float(x), float(p))


def energy_xy(params: OscillatorParams, x, p):
    """Vectorized dimensionless energy eps(xbar, p) in units of hbar omega.

    The squares are products, which round the same for a 0-d point as for
    the point inside an array; numpy's scalar power does not.  Far enough
    out the energy overflows to inf, without a warning.
    """
    xb = np.asarray(x, dtype=float) + params.shift
    pp = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):
        kinetic = pp * pp / (2.0 * params.m)
        potential = 0.5 * params.m * params.omega**2 * (xb * xb)
        return (kinetic + potential) / (params.hbar * params.omega)


def energy(params: OscillatorParams, pt: PhasePoint) -> float:
    """Dimensionless energy of a phase point; equals m rho^2 / (2 hbar omega)."""
    return float(energy_xy(params, pt.x, pt.p))


def reflect(params: OscillatorParams, pt: PhasePoint, axis: str) -> PhasePoint:
    """Reflect a point about xbar = 0 and/or p = 0.

    ``axis`` is one of ``"xbar"``, ``"p"``, ``"both"``.  Reflection in xbar
    happens about the shifted origin, i.e. about x = -alpha/(m omega^2) in
    unshifted coordinates.
    """
    if axis not in ("xbar", "p", "both"):
        raise ValueError(f"axis must be 'xbar', 'p' or 'both', got {axis!r}")
    x, p = pt.x, pt.p
    if axis in ("xbar", "both"):
        x = -x - 2.0 * params.shift
    if axis in ("p", "both"):
        p = -p
    return PhasePoint(x, p)
