"""Stationary oscillator Wigner functions and their marginal densities.

The closed form is a Gaussian-Laguerre function of the dimensionless
energy alone, so every value depends on the phase point only through the
polar radius.  An independent construction by Fourier transform of the
eigenfunctions is provided as a numerical cross-check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .oscillator import (NATURAL_UNITS, TWO_PI, OscillatorParams, PhasePoint,
                         _require_finite, coordinate, energy_xy, xi_of)
from .quadrature import EXTENT, N_LINE, TOL, _line_integral
from .special import check_order, hermite, laguerre, log_weight


def _kernel(params: OscillatorParams, n: int, eps):
    """Gaussian-Laguerre kernel (-1)^n value_scale exp(-2 eps) L_n(4 eps) of the energy eps.

    Past eps = 400, exp(-2 eps) is exactly 0 and L_n keeps the sign (-1)^n of
    L_n(1600), finite for n <= MAX_ORDER; clamping there keeps the recurrence
    from overflowing, so the kernel is the product's zero out to eps = inf.
    """
    sign = -1.0 if n % 2 else 1.0
    lag = laguerre(n, 4.0 * np.minimum(eps, 400.0))
    return sign * params.value_scale * np.exp(-2.0 * eps) * lag


def radial_kernel(params: OscillatorParams, n, rho):
    """Radial factor (-1)^n value_scale exp(-r^2) L_n(2 r^2) at the radii rho = rho_scale r."""
    n = check_order(n)
    with np.errstate(over="ignore"):  # far enough out eps = inf, whose kernel is 0
        r = coordinate(rho, "rho") / params.rho_scale
        eps = 0.5 * (r * r)
    out = _kernel(params, n, eps)
    return out if np.ndim(rho) else float(out)


@dataclass(frozen=True)
class StationaryWigner:
    """Callable field W(x, p, t) for eigenstate ``n``; time independent.

    ``t``, one time or an array of them, is checked and otherwise ignored.

    Besides evaluation, the p-dependence at fixed x is the Gaussian
    exp(-eta^2) times a polynomial in eta = p/sigma_p, so derivatives with
    respect to p of any order are available in closed form; they serve as
    the exact-derivative path for phase-space evolution checks.
    """

    params: OscillatorParams = field(default_factory=lambda: NATURAL_UNITS)
    n: int = 0

    def __post_init__(self):
        check_order(self.n)

    def __call__(self, x, p, t=0.0):
        _require_finite(t, "t")
        return _kernel(self.params, self.n, energy_xy(self.params, x, p))

    def polar_factors(self, rho, phi, t=0.0):
        """Radial factor at the radii ``rho`` and angular factor at the angles ``phi``.

        W(rho_i, phi_j, t) = radial[i] * angular[j]; an eigenstate has no
        angular dependence, so its angular factor is 1.
        """
        _require_finite(t, "t")
        return radial_kernel(self.params, self.n, rho), np.ones(np.shape(phi))

    def p_derivative(self, order, x, p):
        """Exact d^order W / dp^order at the scalar point (x, p).

        W(x, p) = K exp(-xi^2) exp(-eta^2) q(eta) with q a polynomial, and
        each derivative in p is one in eta divided by sigma_p.  Where the
        Gaussian underflows the value is 0, and q, which could overflow
        there, is not formed.
        """
        if order < 0 or int(order) != order:
            raise ValueError(f"derivative order must be a non-negative integer, got {order}")
        pr = self.params
        xi = (float(coordinate(x, "x")) + pr.shift) / pr.sigma_x
        eta = float(coordinate(p, "p")) / pr.sigma_p
        sign = -1.0 if self.n % 2 else 1.0
        # products, not ** 2: a Python float power raises OverflowError
        gauss = sign * pr.value_scale * math.exp(-(xi * xi)) * math.exp(-(eta * eta))
        if gauss == 0.0:
            return 0.0
        # q holds coefficients in ascending powers of eta: L_n(2 xi^2 + 2 eta^2)
        # expanded in eta by Horner on the shifted argument, then q -> q' - 2 eta q
        # per order.  Each operation rounds as numpy.polynomial.Polynomial's
        # does (the product negated, then q' added), so the value keeps its bits.
        base = np.array([2.0 * (xi * xi), 0.0, 2.0])
        coeffs = [(-1.0) ** k * math.comb(self.n, k) / math.factorial(k) for k in range(self.n + 1)]
        q = np.array(coeffs[-1:])
        for c in coeffs[-2::-1]:
            q = np.convolve(q, base)
            q[0] += c
        two_eta = np.array([0.0, 2.0])
        for _ in range(int(order)):
            dq = q[1:] * np.arange(1, len(q)) if len(q) > 1 else q * 0
            q = -np.convolve(two_eta, q)
            q[:len(dq)] += dq
        # Horner at 0.0 + eta, where numpy.polynomial evaluates, so -0.0 as 0.0
        value = float(np.polyval(q[::-1], 0.0 + eta)) * gauss
        for _ in range(int(order)):
            value /= pr.sigma_p
        return value


def stationary_field(params: OscillatorParams, n) -> StationaryWigner:
    """Field factory for the stationary Wigner function of eigenstate ``n``."""
    return StationaryWigner(params, check_order(n))


def wigner_stationary(params: OscillatorParams, n, pt: PhasePoint) -> float:
    """Stationary Wigner value (-1)^n value_scale exp(-2 eps) L_n(4 eps) at a point."""
    return float(stationary_field(params, n)(pt.x, pt.p))


def _hermite_gauss(n: int, xi):
    """H_n(xi) exp(-xi^2/2) / sqrt(2^n n!), the weight folded into the exponent for large n.

    Past |xi| = 40 the exponential is exactly 0 and H_n keeps the sign
    sign(xi)^n of H_n(+-40), finite for n <= MAX_ORDER; clamping there keeps
    the recurrence from overflowing, so the value is the product's signed
    zero out to xi = +-inf.
    """
    with np.errstate(over="ignore"):  # far enough out xi^2 = inf
        gauss = np.exp(0.5 * (log_weight(n) - xi**2))
    return hermite(n, np.clip(xi, -40.0, 40.0)) * gauss


def position_density(params: OscillatorParams, n, x):
    """Position density |Psi_n(xbar)|^2 of eigenstate ``n``: |psi_n(xi)|^2 / sigma_x."""
    n = check_order(n)
    amp = _hermite_gauss(n, xi_of(params, x))
    out = math.sqrt(1.0 / math.pi) / params.sigma_x * np.asarray(amp) ** 2
    return out if np.ndim(x) else float(out)


def momentum_density(params: OscillatorParams, n, p):
    """Momentum density |Psi~_n(p)|^2 of eigenstate ``n``: |psi_n(eta)|^2 / sigma_p.

    Mirror of the position density under xi <-> eta; validated against the
    quadrature of the Wigner function over x rather than trusted as a
    formula.
    """
    n = check_order(n)
    amp = _hermite_gauss(n, coordinate(p, "p") / params.sigma_p)
    out = np.asarray(amp) ** 2 / (math.sqrt(math.pi) * params.sigma_p)
    return out if np.ndim(p) else float(out)


def wavefunction(params: OscillatorParams, n, x):
    """Real eigenfunction Psi_n at the unshifted coordinate x: psi_n(xi) / sqrt(sigma_x)."""
    n = check_order(n)
    norm = (1.0 / math.pi) ** 0.25 / math.sqrt(params.sigma_x)
    out = norm * _hermite_gauss(n, xi_of(params, x))
    return out if np.ndim(x) else float(out)


def wigner_from_wavefunction(params: OscillatorParams, n, pt: PhasePoint,
                             return_error: bool = False):
    """Wigner value by Fourier transform of the eigenfunction pair product.

    Evaluates (1/(2 pi hbar)) * integral of exp(-i p s / hbar)
    Psi_n(xbar + s/2) Psi_n(xbar - s/2) ds for the pure eigenstate; the
    integrand is real (cosine) because Psi_n is real.  Independent of the
    closed form, hence usable as an oracle for it.  In widths it is 1/hbar
    times an integral over s/sigma_x, which spans 2 (|xi| + ``EXTENT``) on
    ``N_LINE`` trapezoid panels, refined by midpoints where needed; raises
    ``AccuracyError`` when its mesh-halving estimate exceeds ``TOL``.
    """
    value, est = _transform_lines(params, check_order(n), pt.x, pt.p)
    return (value, est) if return_error else value


def _transform_lines(params: OscillatorParams, n: int, x: float, p):
    """Transform values and estimates at position ``x`` for one momentum or an array of them.

    The momenta share the integration window, which depends on ``x``
    only, so their lines run as one batch of :func:`_line_integral`;
    each gets the bits a call with that momentum alone would give.
    """
    xi = float(xi_of(params, x))
    s_max = 2.0 * (abs(xi) + EXTENT)  # psi_n is negligible past EXTENT widths
    lines = (np.asarray(p, dtype=float) / params.sigma_p)[..., None]

    def integrand(s):  # the eigenfunctions of unit width are those of natural units
        left = wavefunction(NATURAL_UNITS, n, xi + s / 2.0)
        right = wavefunction(NATURAL_UNITS, n, xi - s / 2.0)
        return np.cos(lines * s) * left * right / TWO_PI

    value, est = _line_integral(integrand, -s_max, s_max, N_LINE, TOL, "wigner_from_wavefunction")
    return value / params.area, est / params.area
