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

from .errors import DataError

TWO_PI = 2.0 * math.pi


def _positive_real(value) -> bool:
    """True for a finite positive number; a bool is not one."""
    return not isinstance(value, bool) and math.isfinite(value) and value > 0.0


@dataclass(frozen=True)
class OscillatorParams:
    """Mass, angular frequency, action quantum and linear-shift coefficient."""

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

    @property
    def shift(self) -> float:
        """Equilibrium offset alpha/(m omega^2) between x and xbar."""
        return self.alpha / (self.m * self.omega**2)


NATURAL_UNITS = OscillatorParams(m=1.0, omega=1.0, hbar=1.0, alpha=0.0)


def coordinate(values, name):
    """``values`` as a float array; raises ``DataError`` naming the coordinate if it holds a NaN."""
    vals = np.asarray(values, dtype=float)
    if np.isnan(vals).any():
        raise DataError(f"coordinate {name} is NaN")
    return vals


def _require_finite(value, name):
    """``value`` as a float; raises ``DataError`` naming it if it is NaN, infinite or a bool."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise DataError(f"{name} must be finite, got {value}")
    return float(value)


def _phase(rate, t):
    """The wave phase ``rate * t``; raises ``DataError`` naming t if it is not finite.

    A finite t can still take the phase to inf, where no angle is defined.
    """
    phase = rate * t
    if not math.isfinite(phase):
        raise DataError(f"t = {t!r} takes the wave phase {rate!r} * t to {phase!r}")
    return phase


@dataclass(frozen=True)
class PhasePoint:
    """A location (x, p) in unshifted phase-plane coordinates."""

    x: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "x", _require_finite(self.x, "x"))
        object.__setattr__(self, "p", _require_finite(self.p, "p"))


def shifted_x(params: OscillatorParams, x):
    """Shifted coordinate xbar = x + alpha/(m omega^2)."""
    return x + params.shift


def polar_from_xy(params: OscillatorParams, x, p):
    """Vectorized (x, p) -> (rho, phi) with phi in [0, 2pi), phi(origin) = 0."""
    x = coordinate(x, "x")
    p = coordinate(p, "p")
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


def energy_xy(params: OscillatorParams, x, p):
    """Vectorized dimensionless energy eps(xbar, p) in units of hbar omega.

    The squares are products, which round the same for a 0-d point as for
    the point inside an array; numpy's scalar power does not.  Far enough
    out the energy overflows to inf, without a warning.
    """
    xb = coordinate(x, "x") + params.shift
    pp = coordinate(p, "p")
    with np.errstate(over="ignore"):
        kinetic = pp * pp / (2.0 * params.m)
        potential = 0.5 * params.m * params.omega**2 * (xb * xb)
        return (kinetic + potential) / (params.hbar * params.omega)
