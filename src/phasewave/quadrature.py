"""Phase-space quadrature: full-plane integrals, marginals, mean energy.

Integrands here are Gaussian-damped and smooth, so fixed-size rules with a
single Richardson-style mesh halving are enough: composite trapezoid on the
periodic angle (spectrally accurate), Gauss-Legendre in the radius, and
composite Simpson on marginal lines.  Every routine reports convergence
failure as :class:`~phasewave.errors.AccuracyError` instead of returning a
value it cannot back with an error estimate.

Fields are callables ``W(x, p, t)`` accepting numpy arrays in ``x, p``.
A field that also has ``polar_factors(rho, phi, t)``, returning a radial
factor on 1-d radii and an angular factor on 1-d angles whose outer
product is W on the polar grid, is integrated over the disk as one radial
sum times one angular sum on the same nodes; its truncation tail is then
measured from its own radial factor, not from the Gaussian alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ConfigurationError
from .oscillator import TWO_PI, OscillatorParams, xy_from_polar
from .special import MAX_ORDER, check_order, laguerre

#: Largest admissible ratio between the radial kernel tail and its peak.
_TAIL_BOUND = 1e-14

#: Gauss-Legendre nodes of the rule that measures a factored field's tail.
_TAIL_NODES = 128


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization sizes and tolerance for the verification integrals.

    Parameters
    ----------
    rho_max : float
        Truncation radius of the polar disk.  Must leave the Gaussian
        kernel tail exp(-m rho_max^2 / (hbar omega)) below 1e-14 of its
        peak for the parameters in use, and, for a field with
        ``polar_factors``, its integral beyond ``rho_max`` below ``tol``;
        the disk integrators enforce both.
    n_rho, n_phi : int
        Radial (Gauss-Legendre) and angular (periodic trapezoid) node
        counts for disk integrals.
    line_window : float
        Half-width of 1-D marginal integrals in units of the Gaussian
        width of the integrand.
    n_line : int
        Panel count for 1-D integrals (rounded up to even for Simpson).
    tol : float
        Absolute tolerance requested from every integral.
    """

    rho_max: float = 7.0
    n_rho: int = 512
    n_phi: int = 512
    line_window: float = 9.0
    n_line: int = 2048
    tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.rho_max) and self.rho_max > 0.0):
            raise ValueError(f"rho_max must be positive, got {self.rho_max}")
        if not (math.isfinite(self.line_window) and self.line_window > 0.0):
            raise ValueError(f"line_window must be positive, got {self.line_window}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        for name in ("n_rho", "n_phi", "n_line"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8, got {getattr(self, name)}")


DEFAULT_QUAD = QuadratureSpec()


@lru_cache(maxsize=64)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _check_tail(params, rho_max):
    tail = math.exp(-params.m * rho_max**2 / (params.hbar * params.omega))
    if tail > _TAIL_BOUND:
        raise ConfigurationError(
            f"rho_max={rho_max} leaves a kernel tail {tail:.3e} above {_TAIL_BOUND:g}; "
            "enlarge the truncation radius"
        )


def _gl_nodes(n, a, b):
    """Gauss-Legendre nodes of order ``n`` on [a, b], the half-width (b - a)/2 and the unit weights.

    The disk rule scales its weights by the half-width and the energy
    identity scales its sum, which round differently.
    """
    xg, wg = _leggauss(n)
    half = 0.5 * (b - a)
    return half * (xg + 1.0) + a, half, wg


def _angles(n_phi):
    return TWO_PI * np.arange(n_phi) / n_phi


def _polar_factor_vectors(W, rho, phi, t):
    """``W.polar_factors(rho, phi, t)`` as float arrays of the shapes of ``rho`` and ``phi``.

    A factor that does not vary, such as the 0-d angular factor of a
    stationary profile, is broadcast to its nodes.
    """
    radial, angular = W.polar_factors(rho, phi, t)
    return (np.broadcast_to(np.asarray(radial, dtype=float), rho.shape),
            np.broadcast_to(np.asarray(angular, dtype=float), phi.shape))


def _factored_integrand(W, rho, phi, t, radial_weight):
    """Radial part rho g(rho) radial(rho) and angular part of a field with ``polar_factors``."""
    radial, angular = _polar_factor_vectors(W, rho, phi, t)
    radial = radial * rho
    if radial_weight is not None:
        radial = radial * radial_weight(rho)
    return radial, angular


def _check_factored_tail(W, params, quad, t, radial_weight):
    """Refuse a disk that truncates a factored field by more than ``quad.tol``.

    Bounds the integral left out beyond ``rho_max`` by (m/omega) times the
    Gauss-Legendre integral of |radial rho weight| over [rho_max, R] times
    dphi sum |angular| on the fine angular nodes.  R lies past rho_max by
    at least the turning radius sqrt((2n+1) hbar omega/m) of the highest
    admissible order, out to which a kernel oscillates before its Gaussian
    decay sets in.
    """
    turning = math.sqrt((2 * MAX_ORDER + 1) * params.hbar * params.omega / params.m)
    rho, half, wg = _gl_nodes(_TAIL_NODES, quad.rho_max, quad.rho_max + max(quad.rho_max, turning))
    radial, angular = _factored_integrand(W, rho, _angles(quad.n_phi), t, radial_weight)
    tail = (params.m / params.omega * float(np.dot(half * wg, np.abs(radial)))
            * float(np.abs(angular).sum()) * (TWO_PI / quad.n_phi))
    if tail > quad.tol:
        raise ConfigurationError(
            f"rho_max={quad.rho_max} leaves an integrand tail {tail:.3e} above "
            f"tol {quad.tol:g}; enlarge rho_max"
        )


def _disk_sum(W, params, n_rho, n_phi, rho_max, t, radial_weight):
    """One fixed-size evaluation of (m/omega) * integral of W rho drho dphi.

    A field with ``polar_factors`` takes the factored form
    (sum_i w_i rho_i g(rho_i) radial_i) (dphi sum_j angular_j) of the same
    tensor-product rule; any other callable is evaluated on the full grid.
    """
    rho, half, wg = _gl_nodes(n_rho, 0.0, rho_max)
    phi = _angles(n_phi)
    if hasattr(W, "polar_factors"):
        radial, angular = _factored_integrand(W, rho, phi, t, radial_weight)
        ring = float(angular.sum()) * (TWO_PI / n_phi)
        return params.m / params.omega * (float(np.dot(half * wg, radial)) * ring)
    x, p = xy_from_polar(params, rho[:, None], phi[None, :])
    vals = np.asarray(W(x, p, t), dtype=float)
    vals = np.broadcast_to(vals, x.shape) * rho[:, None]
    if radial_weight is not None:
        vals = vals * radial_weight(rho)[:, None]
    ring = vals.sum(axis=1) * (TWO_PI / n_phi)
    return params.m / params.omega * float(np.dot(half * wg, ring))


def _refined(rule, tol, label):
    """Value and estimate of ``rule(size)``, which runs with each node count k as size(k).

    Counts k are estimated against k // 2; above ``tol``, 2k against k,
    and ``AccuracyError`` if that is still above ``tol``.
    """
    coarse, fine = rule(lambda k: k // 2), rule(lambda k: k)
    est = abs(fine - coarse)
    if est <= tol:
        return fine, est
    finer = rule(lambda k: 2 * k)
    est = abs(finer - fine)
    if est > tol:
        raise AccuracyError(
            f"{label}: estimate {est:.3e} above tol {tol:g} after refinement",
            value=finer,
            estimate=est,
        )
    return finer, est


def _disk_integral(W, params, quad, t, radial_weight, label):
    _check_tail(params, quad.rho_max)
    if hasattr(W, "polar_factors"):
        _check_factored_tail(W, params, quad, t, radial_weight)
    return _refined(lambda size: _disk_sum(W, params, size(quad.n_rho), size(quad.n_phi),
                                           quad.rho_max, t, radial_weight),
                    quad.tol, label)


def _simpson(vals, h):
    """Composite Simpson over the last axis; one value per leading index."""
    return h / 3.0 * (vals[..., 0] + vals[..., -1] + 4.0 * vals[..., 1:-1:2].sum(axis=-1)
                      + 2.0 * vals[..., 2:-1:2].sum(axis=-1))


def _simpson_pair(f, a, b, n):
    """Simpson on n panels, per line, its distance from Simpson on n/2, and max |f| at a and b."""
    xs = np.linspace(a, b, n + 1)
    vals = np.asarray(f(xs), dtype=float)
    vals = np.broadcast_to(vals, vals.shape[:-1] + xs.shape)
    h = (b - a) / n
    fine = _simpson(vals, h)
    ends = np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1]))
    return fine, abs(fine - _simpson(vals[..., ::2], 2.0 * h)), ends


def _line_integral(f, a, b, n_panels, tol, label):
    """Composite Simpson with one halving-based refinement and error estimate.

    ``f(xs)`` returns the integrand at the nodes ``xs`` along its last
    axis; leading axes, if any, index independent lines, and the result
    has their shape.  Each line is estimated on its own.  If some fail,
    ``f`` runs once more on the halved mesh and only the failing lines take
    its value and estimate, so a line integrates exactly as it would alone.

    The mesh estimate cannot see what lies outside [a, b].  A line whose
    integrand at a or b, times b - a, exceeds ``tol`` is truncated by the
    window, and ``ConfigurationError`` refuses it.
    """
    n = int(n_panels)
    n += n % 2
    value, est, ends = _simpson_pair(f, a, b, n)
    end = float(np.max(ends, initial=0.0))
    if end * (b - a) > tol:
        raise ConfigurationError(
            f"{label}: the integrand reaches {end:.3e} at the window ends, which can truncate "
            f"up to {end * (b - a):.3e}, above tol {tol:g}; enlarge line_window"
        )
    failed = est > tol
    if np.any(failed):
        fine, fine_est, _ = _simpson_pair(f, a, b, 2 * n)
        value = np.where(failed, fine, value)
        est = np.where(failed, fine_est, est)
        if np.any(est > tol):
            worst = np.unravel_index(np.argmax(est), est.shape)
            raise AccuracyError(
                f"{label}: estimate {est[worst]:.3e} above tol {tol:g} after refinement",
                value=float(value[worst]),
                estimate=float(est[worst]),
            )
    return (value, est) if np.ndim(value) else (float(value), float(est))


def phase_space_integral(W, params: OscillatorParams, quad: QuadratureSpec | None = None,
                         t: float = 0.0, return_error: bool = False):
    """Integral of W over the whole phase plane.

    Computed in polar coordinates with the Jacobian dx dp =
    (m/omega) rho drho dphi; raises ``AccuracyError`` if the mesh-halving
    estimate stays above ``quad.tol``.
    """
    quad = quad or DEFAULT_QUAD
    value, est = _disk_integral(W, params, quad, t, None, "phase_space_integral")
    return (value, est) if return_error else value


def mean_energy(W, params: OscillatorParams, t: float = 0.0,
                quad: QuadratureSpec | None = None, return_error: bool = False):
    """Dimensionless mean energy: integral of eps(xbar, p) W over the plane.

    Multiply by hbar*omega for the physical energy.
    """
    quad = quad or DEFAULT_QUAD
    scale = params.m / (2.0 * params.hbar * params.omega)

    def weight(rho):
        return scale * rho**2

    value, est = _disk_integral(W, params, quad, t, weight, "mean_energy")
    return (value, est) if return_error else value


def marginal_over_p(W, params: OscillatorParams, x, t: float = 0.0,
                    quad: QuadratureSpec | None = None, return_error: bool = False):
    """Integral of W over p at fixed x, for one position or an array of them.

    Runs in Cartesian variables over a window of ``line_window`` Gaussian
    momentum widths sqrt(m hbar omega).  An array ``x`` evaluates W once
    for all its lines and returns arrays of its shape; each line gets the
    value and estimate a call with that position alone would give.  Raises
    ``ConfigurationError`` when W at the window ends is not negligible, as
    for eigenstates from about n = 24 at the default window.
    """
    quad = quad or DEFAULT_QUAD
    half = quad.line_window * math.sqrt(params.m * params.hbar * params.omega)
    lines = np.asarray(x, dtype=float)[..., None]
    value, est = _line_integral(lambda ps: W(lines, ps, t), -half, half, quad.n_line,
                                quad.tol, "marginal_over_p")
    return (value, est) if return_error else value


def marginal_over_x(W, params: OscillatorParams, p, t: float = 0.0,
                    quad: QuadratureSpec | None = None, return_error: bool = False):
    """Integral of W over x at fixed p, for one momentum or an array of them.

    The window is centered on the shifted origin xbar = 0 and spans
    ``line_window`` Gaussian position widths sqrt(hbar/(m omega)).  An
    array ``p`` is batched as in :func:`marginal_over_p`.
    """
    quad = quad or DEFAULT_QUAD
    half = quad.line_window * math.sqrt(params.hbar / (params.m * params.omega))
    center = -params.shift
    lines = np.asarray(p, dtype=float)[..., None]
    value, est = _line_integral(lambda xs: W(xs, lines, t), center - half, center + half,
                                quad.n_line, quad.tol, "marginal_over_x")
    return (value, est) if return_error else value


def laguerre_energy_identity(n, quad: QuadratureSpec | None = None,
                             return_error: bool = False):
    """Numerically evaluate integral_0^inf exp(-2 eps) L_n(4 eps) eps d(eps).

    The exact value is (-1)^n (2n+1)/4.  L_n(4 eps) oscillates out to its
    turning point eps = n + 1/2, a radius of sqrt(2n+1) widths; the rule
    integrates [0, eps_max] with eps_max = (sqrt(2n+1) + 3.5)^2 / 2, at
    least 40, past which the integrand is negligible.
    """
    n = check_order(n)
    quad = quad or DEFAULT_QUAD
    eps_max = max(40.0, 0.5 * (math.sqrt(2 * n + 1) + 3.5) ** 2)

    def rule(size):
        eps, half, wg = _gl_nodes(size(max(quad.n_rho, 128)), 0.0, eps_max)
        return half * float(np.dot(wg, np.exp(-2.0 * eps) * laguerre(n, 4.0 * eps) * eps))

    value, est = _refined(rule, quad.tol, "laguerre_energy_identity")
    return (value, est) if return_error else value
