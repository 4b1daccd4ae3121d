"""Phase-space quadrature: full-plane integrals, marginals, mean energy.

Integrands here are Gaussian-damped and smooth, so fixed-size rules with a
single Richardson-style mesh halving are enough on the disk: composite
trapezoid on the periodic angle (spectrally accurate) and Gauss-Legendre in
the radius.  The Gauss-Legendre nodes come from Newton's method on the
Legendre recurrence, O(n^2) work in a few vectorised passes, with a last
step in ``np.longdouble``; each mapped radius and weight rounds to a double
once.  A line is a composite trapezoid too: its analytic integrand
falls to rounding inside the window, where the rule converges geometrically,
and a line whose estimate fails refines by midpoints up to
``LINE_REFINE`` times its panels.  Every routine reports convergence
failure, a non-finite value included, as
:class:`~phasewave.errors.AccuracyError` instead of returning
a value it cannot back with an error estimate.  Every rule spans
:data:`EXTENT` Gaussian widths, past which no field of order
n <= ``MAX_ORDER`` is more than rounding, and runs with the node counts
:data:`N_RHO`, :data:`N_PHI` and :data:`N_LINE` and the tolerance
:data:`TOL`; the quadrature has no settings.

Every field is a callable ``W(x, p, t)`` accepting numpy arrays in
``x, p``.  The disk rule reads it on the polar grid through one adapter,
:func:`~phasewave.oscillator._polar_grid`: a field with
``polar_factors(rho, phi, t)``, whose radial and angular factors have W on
the grid as their outer product, is integrated as one radial sum times one
angular sum on the same nodes.  Any other callable, and a rotation of one,
is tabulated on the grid; nothing tells a rule how far it extends, so each
rule raises :class:`~phasewave.errors.ConfigurationError` for one that has
not decayed at the edge of its extent.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ConfigurationError, _reals, _require_finite
from .oscillator import TWO_PI, OscillatorParams, _polar_grid
from .special import MAX_ORDER, check_order, laguerre

#: Half-width, in Gaussian widths, of every rule: the order-MAX_ORDER
#: turning point sqrt(2 MAX_ORDER + 1) plus 4.5 widths of Gaussian decay.
EXTENT = math.sqrt(2 * MAX_ORDER + 1) + 4.5
#: Radial (Gauss-Legendre) and angular (periodic trapezoid) node counts of
#: the disk rule, and first panel count of every line rule (trapezoid,
#: even): the power of two at which no eigenstate line of order <=
#: MAX_ORDER refines; on 256 panels the 128-panel sub-rule misses TOL.
N_RHO, N_PHI, N_LINE = 512, 512, 512
#: Absolute tolerance of every mesh-halving estimate, in the value's natural unit.
TOL = 1e-8
#: Factor by which a line rule may refine its first panel count.
LINE_REFINE = 8


def _newton_step(n, x):
    """Newton step P_n(x) / P_n'(x) and P_n'(x) at the nodes ``x``, in their precision.

    P_n comes from the monic recurrence scaled by 2^j, r_{j+1} = 2x r_j -
    4j^2 / (4j^2 - 1) r_{j-1} from r_0 = 1 and r_1 = 2x, three in-place
    operations a step; r_j = s_j P_j with s_j = prod_{i <= j} 2i / (2i - 1).
    P_n' comes from (x^2 - 1) P_n' = n (x P_n - P_{n-1}).
    """
    j = np.arange(1, n, dtype=x.dtype)
    two_x = 2.0 * x
    prev, cur, tmp = np.ones_like(x), two_x.copy(), np.empty_like(x)
    for g in 4.0 * j * j / (4.0 * j * j - 1.0):
        np.multiply(two_x, cur, tmp)
        prev *= g
        np.subtract(tmp, prev, prev)
        prev, cur = cur, prev
    i = np.arange(1, n + 1, dtype=x.dtype)
    ratios = 2.0 * i / (2.0 * i - 1.0)
    s_prev = np.prod(ratios[:-1])
    p = cur / (s_prev * ratios[-1])
    dp = n * (x * p - prev / s_prev) / (x * x - 1.0)
    return p / dp, dp


@lru_cache(maxsize=64)
def _leggauss(n):
    """Gauss-Legendre nodes of order ``n`` on [-1, 1], ascending, and their weights.

    Newton's method on the recurrence finds the nodes in [0, 1), all at
    once, from Tricomi's guess (1 - (n-1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)).
    Once no node moves by more than 1e-9, one last step, which Newton's
    quadratic convergence takes below rounding for n up to a few thousand,
    runs in ``np.longdouble``; nodes and weights are returned in that type, so
    that :func:`_gl_nodes` rounds each to a double once, after mapping.
    P_n' at the last step's start, carried to the root by Legendre's
    equation (P_n'' = 2x P_n' / (1 - x^2) where P_n = 0), gives the weights
    2 / ((1 - x^2) P_n'^2).  The negative half is the mirror image, so the
    nodes are exactly antisymmetric and the weights exactly symmetric.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    moved = 1.0
    while moved > 1e-9:
        step, _ = _newton_step(n, x)
        x = x - step
        moved = float(np.max(np.abs(step)))
    x = x.astype(np.longdouble)
    step, dp = _newton_step(n, x)
    dp *= 1.0 - 2.0 * x * step / (1.0 - x * x)
    x -= step
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x[n // 2:] = 0.0  # the middle node of an odd order
    return np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1]))


def _gl_nodes(n, a, b):
    """Gauss-Legendre nodes of order ``n`` on [a, b] and their weights, each rounded once."""
    xg, wg = _leggauss(n)
    half = 0.5 * (np.longdouble(b) - a)
    return (half * (xg + 1.0) + a).astype(float), (half * wg).astype(float)


@np.errstate(over="ignore", invalid="ignore")  # a sum that overflows is non-finite, a failure
def _disk_sum(W, params, n_rho, n_phi, t, radial_weight, label):
    """One fixed-size evaluation of hbar * integral of W g r dr dphi over r <= ``EXTENT``.

    The field sees the radii rho = rho_scale r, through ``_polar_grid``.
    A 1-d angular factor takes the factored form (sum_i w_i J_i radial_i)
    (dphi sum_j angular_j) of the tensor-product rule, with J = r g(r).  A
    tabulated (2-d) one is summed ring by ring and refused when hbar |W| J
    on the outermost ring, times ``EXTENT``, exceeds ``TOL``.
    """
    r, wr = _gl_nodes(n_rho, 0.0, EXTENT)
    phi = TWO_PI * np.arange(n_phi) / n_phi
    jac = r if radial_weight is None else r * radial_weight(r)
    cell = TWO_PI / n_phi * params.area
    radial, angular = _polar_grid(W, params, params.rho_scale * r, phi, t)
    if angular.ndim == 1:
        return float(np.dot(wr, jac * radial)) * float(angular.sum()) * cell
    edge = float(np.max(np.abs(radial[-1] * angular[-1]))) * jac[-1] * EXTENT * params.area
    if edge > TOL:
        raise ConfigurationError(
            f"{label}: the integrand on the outermost ring can truncate up to {edge:.3e}, "
            f"above tol {TOL:g}; it has not decayed within {EXTENT:.2f} Gaussian widths"
        )
    return float(np.dot(wr * jac * radial, angular.sum(axis=1))) * cell


def _refined(rule, label):
    """Value and estimate of ``rule(size)``, which runs with each node count k as size(k).

    Counts k are estimated against k // 2; above ``TOL``, 2k against k,
    and ``AccuracyError`` if that is still above ``TOL``.  A non-finite
    value makes the estimate NaN or inf, which fails both comparisons.
    """
    coarse, fine = rule(lambda k: k // 2), rule(lambda k: k)
    est = abs(fine - coarse)
    if est <= TOL:
        return fine, est
    finer = rule(lambda k: 2 * k)
    est = abs(finer - fine)
    if not est <= TOL:
        raise AccuracyError(
            f"{label}: estimate {est:.3e} not within tol {TOL:g} after refinement",
            value=finer,
            estimate=est,
        )
    return finer, est


def _disk_integral(W, params, t, radial_weight, label):
    return _refined(lambda size: _disk_sum(W, params, size(N_RHO), size(N_PHI), t,
                                           radial_weight, label), label)


def _line_values(f, xs):
    """``f(xs)`` as a float array of the broadcast shape of its values and the nodes ``xs``."""
    vals = np.asarray(f(xs), dtype=float)
    return np.broadcast_to(vals, np.broadcast_shapes(vals.shape, xs.shape))


def _nodes(a, b, n):
    """``n`` nodes from a to b on every line, as one C-contiguous array of shape lines + (n,).

    Contiguous nodes give contiguous values, whose sums along the last axis
    round as a lone line's do; the strided view ``linspace`` returns along
    the last axis does not.
    """
    return np.ascontiguousarray(np.linspace(a, b, n, axis=-1))


def _line_integral(f, a, b, n_panels, tol, label, max_step=math.inf):
    """Composite trapezoid with midpoint refinement and an error estimate.

    ``f(xs)`` returns the integrand at the nodes ``xs`` along its last
    axis; leading axes, if any, index independent lines, and the result
    has their shape.  The window ends ``a`` and ``b`` are numbers or arrays
    that broadcast to the lines, so each line may have its own window: the
    nodes have the shape of ``np.broadcast(a, b)`` plus the node axis, and
    ``f``'s values may broadcast them further.  Each line is estimated on
    its own, against the rule on every other node.  While some fail, ``f``
    runs on the midpoints of the current mesh,
    T_2n = T_n / 2 + h_2n sum f(midpoints), up to ``LINE_REFINE``
    ``n_panels`` panels; only the failing lines take the finer value and
    its distance from the coarser one, so a line integrates exactly as it
    would alone.  A line whose step is above ``max_step``, a number or an
    array that broadcasts to the lines, fails too, whatever its estimate:
    the caller sets it where two meshes can agree on a wrong value, and
    makes sure the finest mesh meets it.

    The mesh estimate cannot see what lies outside [a, b].  A line whose
    integrand at a or b, times its b - a, exceeds ``tol`` is truncated by
    its window, and ``ConfigurationError`` refuses the batch, naming the
    worst such line's truncation.  A non-finite value makes its line's
    estimate NaN or inf, which counts as a failure.
    """
    n = int(n_panels)
    n += n % 2
    finest = LINE_REFINE * n
    width = b - a
    vals = _line_values(f, _nodes(a, b, n + 1))
    end = np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1]))
    trunc = end * width
    if np.any(trunc > tol):
        worst = np.unravel_index(np.nanargmax(trunc), trunc.shape)
        raise ConfigurationError(
            f"{label}: the integrand reaches {end[worst]:.3e} at the window ends, which can "
            f"truncate up to {trunc[worst]:.3e}, above tol {tol:g}; it has not decayed within "
            f"{EXTENT:.2f} Gaussian widths"
        )
    h = width / n
    with np.errstate(invalid="ignore"):  # an inf integrand gives a NaN estimate, a failure
        coarse = 2.0 * h * (0.5 * (vals[..., 0] + vals[..., -1]) + vals[..., 2:-1:2].sum(axis=-1))
        value = 0.5 * coarse + h * vals[..., 1::2].sum(axis=-1)
        est = abs(value - coarse)
        level = value
        failed = ~(est <= tol) | (h > max_step)
        while n < finest and np.any(failed):
            h = 0.5 * h
            finer = 0.5 * level + h * _line_values(f, _nodes(a + h, b - h, n)).sum(axis=-1)
            value = np.where(failed, finer, value)
            est = np.where(failed, abs(finer - level), est)
            level = finer
            n *= 2
            failed = ~(est <= tol) | (h > max_step)
    if not np.all(est <= tol):
        worst = np.unravel_index(np.argmax(est), est.shape)
        raise AccuracyError(
            f"{label}: estimate {est[worst]:.3e} not within tol {tol:g} after refinement",
            value=float(value[worst]),
            estimate=float(est[worst]),
        )
    return (value, est) if np.ndim(value) else (float(value), float(est))


def phase_space_integral(W, params: OscillatorParams, t: float = 0.0,
                         return_error: bool = False):
    """Integral of W over the whole phase plane.

    Computed in polar widths with the Jacobian dx dp = hbar r dr dphi;
    raises ``AccuracyError`` if the mesh-halving estimate stays above
    ``TOL``.
    """
    value, est = _disk_integral(W, params, t, None, "phase_space_integral")
    return (value, est) if return_error else value


def mean_energy(W, params: OscillatorParams, t: float = 0.0, return_error: bool = False):
    """Dimensionless mean energy: integral of eps(xbar, p) W over the plane.

    Multiply by hbar*omega for the physical energy.  In widths eps = r^2/2.
    """
    value, est = _disk_integral(W, params, t, lambda r: 0.5 * (r * r), "mean_energy")
    return (value, est) if return_error else value


def _marginal(integrand, fixed, t, a, b, tol, label, return_error):
    """Line integrals of ``integrand(lines, times, nodes)`` over [a, b] for every (fixed, t).

    ``fixed`` is the float array of the lines' positions or momenta.
    The lines and an array ``t`` each gain a trailing axis for the nodes, so
    the field is evaluated once on the broadcast of the positions and the
    times, and what does not depend on t is formed once for all of them.
    Value and estimate take the shape of ``np.broadcast(fixed, t)``, also
    for a field that ignores t, whose ``t`` is checked as a field's is.
    """
    lines = fixed[..., None]
    t = _require_finite(t, "t")
    times = t if np.ndim(t) == 0 else t[..., None]
    value, est = _line_integral(lambda nodes: integrand(lines, times, nodes), a, b, N_LINE,
                                tol, label)
    shape = np.broadcast(lines[..., 0], t).shape
    if np.shape(value) != shape:
        value, est = np.broadcast_to(value, shape).copy(), np.broadcast_to(est, shape).copy()
    return (value, est) if return_error else value


def marginal_over_p(W, params: OscillatorParams, x, t: float = 0.0,
                    return_error: bool = False):
    """Integral of W over p at fixed x, for one position or an array of them.

    Runs in Cartesian variables over ``EXTENT`` widths sigma_p either side
    of p = 0, against ``TOL`` in the density's unit 1/sigma_x.  An array
    ``x``, an array ``t`` or both evaluate W once for all their lines and
    return arrays of the shape of ``np.broadcast(x, t)``; each line gets
    the value and estimate a call with that position and time alone would
    give.  Raises ``ConfigurationError`` when W at the window ends is not
    negligible, which no field of order n <= ``MAX_ORDER`` reaches.
    """
    half = EXTENT * params.sigma_p
    return _marginal(lambda xs, ts, ps: W(xs, ps, ts), _reals(x, "x"), t, -half, half,
                     TOL / params.sigma_x, "marginal_over_p", return_error)


def marginal_over_x(W, params: OscillatorParams, p, t: float = 0.0,
                    return_error: bool = False):
    """Integral of W over x at fixed p, for one momentum or an array of them.

    The window is centered on the shifted origin xbar = 0 and spans
    ``EXTENT`` widths sigma_x either side, against ``TOL`` in the unit
    1/sigma_p.  Arrays ``p`` and ``t`` are batched as in :func:`marginal_over_p`.
    """
    half = EXTENT * params.sigma_x
    center = -params.shift
    return _marginal(lambda ps, ts, xs: W(xs, ps, ts), _reals(p, "p"), t, center - half,
                     center + half, TOL / params.sigma_p, "marginal_over_x", return_error)


def laguerre_energy_identity(n, return_error: bool = False):
    """Numerically evaluate integral_0^inf exp(-2 eps) L_n(4 eps) eps d(eps).

    The exact value is (-1)^n (2n+1)/4.  The rule integrates [0, eps_max]
    with eps_max = EXTENT^2 / 2, the energy at the disk's edge, past which
    the integrand is negligible for every admissible order.
    """
    n = check_order(n)
    eps_max = 0.5 * EXTENT**2

    def rule(size):
        eps, w = _gl_nodes(size(N_RHO), 0.0, eps_max)
        return float(np.dot(w, np.exp(-2.0 * eps) * laguerre(n, 4.0 * eps) * eps))

    value, est = _refined(rule, "laguerre_energy_identity")
    return (value, est) if return_error else value
