"""Phase-plane dynamics and finite-difference verification.

In polar coordinates the quadratic-potential transport equation reduces to
W_t = omega W_phi: values ride unchanged along rotating characteristics,
which gives an exact propagator for any initial snapshot.  A first-order
upwind scheme integrates the same equation numerically, and central
residual stencils measure how well sampled fields satisfy the first-order
transport equation and the second-order membrane wave equation
W_tt = omega^2 W_phiphi.  For polynomial potentials the right-hand side of
the quantum transport (Moyal) equation is a finite sum of odd-order
momentum derivatives; it vanishes identically for quadratic potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, ConfigurationError
from .oscillator import TWO_PI, OscillatorParams, PhasePoint, polar_from_xy, xy_from_polar

MAX_POTENTIAL_DEGREE = 12


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling grid; ``dt`` is required only for time stepping.

    Sampling and export work on any grid; the time stepper additionally
    requires at least 16 angular nodes.
    """

    rho_max: float
    n_rho: int
    n_phi: int
    dt: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.rho_max) and self.rho_max > 0.0):
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        if self.n_rho < 1:
            raise ValueError(f"n_rho must be at least 1, got {self.n_rho}")
        if self.n_phi < 2:
            raise ValueError(f"n_phi must be at least 2, got {self.n_phi}")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def delta_phi(self) -> float:
        return TWO_PI / self.n_phi

    def rho_nodes(self) -> np.ndarray:
        """Radial nodes (i+1) * rho_max / n_rho; the singular origin is excluded."""
        return (np.arange(self.n_rho) + 1.0) * self.rho_max / self.n_rho

    def phi_nodes(self) -> np.ndarray:
        """Angular nodes 2 pi j / n_phi, periodic with no duplicated endpoint."""
        return TWO_PI * np.arange(self.n_phi) / self.n_phi


@dataclass(frozen=True, eq=False)
class Field2D:
    """Values sampled on a polar grid, rho-major so rings are contiguous."""

    grid: GridSpec
    values: np.ndarray
    time_tag: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_rho, self.grid.n_phi):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_rho}, {self.grid.n_phi})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time_tag", float(self.time_tag))


def snapshot(W, t: float):
    """Freeze a field W(x, p, t) into a snapshot callable (x, p)."""
    return lambda x, p: W(x, p, t)


def propagate_exact(W0, params: OscillatorParams, t: float):
    """Exact solution of W_t = omega W_phi for the initial snapshot ``W0``.

    ``W0`` is a callable of (x, p).  Returns the snapshot at time ``t``,
    i.e. (x, p) -> W0 evaluated at the same radius and angle phi + omega t.
    """

    def advanced(x, p):
        rho, phi = polar_from_xy(params, x, p)
        x0, p0 = xy_from_polar(params, rho, (phi + params.omega * t) % TWO_PI)
        return W0(x0, p0)

    return advanced


def evolve_fd(field0: Field2D, params: OscillatorParams, t_final: float) -> Field2D:
    """Advance a sampled field to ``t_final`` by first-order upwind advection.

    Integrates W_t = omega W_phi with forward Euler in time and the upwind
    neighbour (j+1, the direction values arrive from for omega > 0) in the
    periodic angle.  Requires ``grid.dt`` with Courant number
    omega dt / delta_phi <= 1; a final partial step lands exactly on
    ``t_final``.  Rings with distinct radii are independent.
    """
    grid = field0.grid
    if grid.n_phi < 16:
        raise ConfigurationError(f"time stepping needs n_phi >= 16, got {grid.n_phi}")
    if grid.dt is None:
        raise ConfigurationError("grid.dt must be set for time stepping")
    c = params.omega * grid.dt / grid.delta_phi
    if c > 1.0 + 1e-12:
        raise ConfigurationError(
            f"Courant number {c:.6g} exceeds 1; reduce dt below "
            f"{grid.delta_phi / params.omega:.6g}"
        )
    if not math.isfinite(t_final):
        raise ConfigurationError(f"t_final must be finite, got {t_final}")
    span = float(t_final) - field0.time_tag
    if span < 0.0:
        raise ConfigurationError("t_final precedes the field's time tag")
    steps = int(math.floor(span / grid.dt + 1e-9))
    remainder = span - steps * grid.dt

    vals = field0.values.copy()
    for _ in range(steps):
        vals += c * (np.roll(vals, -1, axis=1) - vals)
    total = steps
    if remainder > 1e-12 * max(grid.dt, 1.0):
        c_rem = params.omega * remainder / grid.delta_phi
        vals += c_rem * (np.roll(vals, -1, axis=1) - vals)
        total += 1
    if not np.all(np.isfinite(vals)):
        raise BlowupError(f"non-finite values after {total} upwind steps")
    meta = dict(field0.meta)
    meta.update(steps=total, scheme="upwind1-euler", courant=c)
    return Field2D(grid=grid, values=vals, time_tag=float(t_final), meta=meta)


def _check_triplet(fields):
    if len(fields) != 3:
        raise ConfigurationError(f"expected three fields, got {len(fields)}")
    fm, f0, fp = fields
    if not (fm.grid == f0.grid == fp.grid):
        raise ConfigurationError("residual stencils need identical grids")
    dt1 = f0.time_tag - fm.time_tag
    dt2 = fp.time_tag - f0.time_tag
    if dt1 <= 0.0 or dt2 <= 0.0 or abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise ConfigurationError(
            f"time tags must be uniformly spaced, got spacings {dt1!r}, {dt2!r}"
        )
    return fm, f0, fp, 0.5 * (dt1 + dt2)


def wave_residual(fields, params: OscillatorParams) -> Field2D:
    """Central-difference estimate of W_tt - omega^2 W_phiphi.

    ``fields`` holds three samples of the same grid at consecutive times
    t - dt, t, t + dt.  Vanishes under refinement at second order for any
    solution of the membrane wave equation.
    """
    fm, f0, fp, dt = _check_triplet(fields)
    v = f0.values
    wtt = (fp.values - 2.0 * v + fm.values) / dt**2
    dphi = f0.grid.delta_phi
    wpp = (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / dphi**2
    res = wtt - params.omega**2 * wpp
    return Field2D(grid=f0.grid, values=res, time_tag=f0.time_tag,
                   meta={"kind": "wave_residual", "dt": dt})


def transport_residual(fields, params: OscillatorParams) -> Field2D:
    """Central-difference estimate of W_t - omega W_phi.

    Discriminates chirality: fields of the form h(Omega t + kappa phi)
    satisfy the transport equation and their residual refines to zero,
    while the counter-propagating component leaves a resolution-independent
    smooth limit.
    """
    fm, f0, fp, dt = _check_triplet(fields)
    wt = (fp.values - fm.values) / (2.0 * dt)
    dphi = f0.grid.delta_phi
    v = f0.values
    wphi = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * dphi)
    res = wt - params.omega * wphi
    return Field2D(grid=f0.grid, values=res, time_tag=f0.time_tag,
                   meta={"kind": "transport_residual", "dt": dt})


@dataclass(frozen=True)
class PolynomialPotential:
    """Potential U(x) = sum_k coeffs[k] x^k of degree at most 12."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            coeffs = (0.0,)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("potential coefficients must be finite")
        if len(coeffs) - 1 > MAX_POTENTIAL_DEGREE:
            raise ConfigurationError(
                f"potential degree {len(coeffs) - 1} exceeds {MAX_POTENTIAL_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Degree ignoring trailing zero coefficients; 0 for the zero potential."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return 0

    def __call__(self, x):
        acc = np.zeros_like(np.asarray(x, dtype=float))
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if np.ndim(x) else float(acc)


def poly_derivative(U: PolynomialPotential, order: int) -> PolynomialPotential:
    """Exact derivative d^order U / dx^order by coefficient shift."""
    if order < 0 or int(order) != order:
        raise ValueError(f"order must be a non-negative integer, got {order}")
    coeffs = list(U.coeffs)
    for _ in range(int(order)):
        coeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
        if not coeffs:
            coeffs = [0.0]
    return PolynomialPotential(tuple(coeffs))


def _fd_weights(z, xs, m):
    """Finite-difference weights for d^m/dx^m at z from nodes xs (Fornberg)."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - z
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - z
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _fd_p_derivative(W, order, x, p, t):
    """Symmetric-stencil p-derivative of W at (x, p), fourth-order accurate."""
    h = max(1e-3, 1e-3 * abs(p))
    r = (order + 3) // 2
    offsets = np.arange(-r, r + 1, dtype=float) * h
    weights = _fd_weights(0.0, offsets, order)
    vals = np.asarray(W(x, p + offsets, t), dtype=float)
    return float(np.dot(weights, vals))


def moyal_rhs(U: PolynomialPotential, W, pt: PhasePoint, hbar: float,
              t: float = 0.0) -> float:
    """Right-hand side of the quantum transport equation at one point.

    Sums (-1)^k (hbar/2)^(2k) / (2k+1)! * U^(2k+1)(x) * d^(2k+1)W/dp^(2k+1)
    over the finitely many odd orders not exceeding deg U.  Quadratic
    potentials contribute no terms, so the result is exactly zero without
    touching ``W``.  If ``W`` exposes ``p_derivative(order, x, p)`` the
    exact derivatives are used; otherwise central differences with step
    h = max(1e-3, 1e-3 |p|).
    """
    deg = U.degree
    exact = getattr(W, "p_derivative", None)
    total = 0.0
    k = 1
    while 2 * k + 1 <= deg:
        d = 2 * k + 1
        u_d = poly_derivative(U, d)(pt.x)
        if u_d != 0.0:
            if exact is not None:
                w_d = exact(d, pt.x, pt.p)
            else:
                w_d = _fd_p_derivative(W, d, pt.x, pt.p, t)
            total += (-1.0) ** k * (hbar / 2.0) ** (2 * k) / math.factorial(d) * u_d * w_d
        k += 1
    return total
