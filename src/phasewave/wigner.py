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

from .oscillator import NATURAL_UNITS, OscillatorParams, PhasePoint, energy_xy, shifted_x
from .quadrature import DEFAULT_QUAD, QuadratureSpec, _line_integral
from .special import check_order, hermite, laguerre, log_weight


def _kernel(params: OscillatorParams, n: int, eps):
    """Gaussian-Laguerre kernel ((-1)^n / (pi hbar)) exp(-2 eps) L_n(4 eps) of the energy eps.

    Past eps = 400, exp(-2 eps) is exactly 0 and L_n keeps the sign (-1)^n of
    L_n(1600), finite for n <= MAX_ORDER; clamping there keeps the recurrence
    from overflowing, so the kernel is the product's zero out to eps = inf.
    """
    sign = -1.0 if n % 2 else 1.0
    lag = laguerre(n, 4.0 * np.minimum(eps, 400.0))
    return sign / (math.pi * params.hbar) * np.exp(-2.0 * eps) * lag


def radial_kernel(params: OscillatorParams, n, rho):
    """Radial factor ((-1)^n / (pi hbar)) exp(-m rho^2/(hbar omega)) L_n(2 m rho^2/(hbar omega))."""
    n = check_order(n)
    with np.errstate(over="ignore"):  # far enough out eps = inf, whose kernel is 0
        eps = 0.5 * params.m * np.asarray(rho, dtype=float) ** 2 / (params.hbar * params.omega)
    out = _kernel(params, n, eps)
    return out if np.ndim(rho) else float(out)


@dataclass(frozen=True)
class StationaryWigner:
    """Callable field W(x, p, t) for eigenstate ``n``; time independent.

    Besides evaluation, the p-dependence at fixed x is the Gaussian
    exp(-p^2/(m hbar omega)) times a polynomial, so derivatives with
    respect to p of any order are available in closed form; they serve as
    the exact-derivative path for phase-space evolution checks.
    """

    params: OscillatorParams = field(default_factory=lambda: NATURAL_UNITS)
    n: int = 0

    def __post_init__(self):
        check_order(self.n)

    def __call__(self, x, p, t=0.0):
        return _kernel(self.params, self.n, energy_xy(self.params, x, p))

    def polar_factors(self, rho, phi, t=0.0):
        """Radial factor at the radii ``rho`` and angular factor at the angles ``phi``.

        W(rho_i, phi_j, t) = radial[i] * angular[j]; an eigenstate has no
        angular dependence, so its angular factor is 1.
        """
        return radial_kernel(self.params, self.n, rho), np.ones(np.shape(phi))

    def _p_polynomial(self, x):
        """Coefficients q with W(x, p) = K exp(-b p^2) q(p), plus K and b."""
        pr = self.params
        a = pr.m * pr.omega / pr.hbar
        b = 1.0 / (pr.m * pr.hbar * pr.omega)
        xb = shifted_x(pr, float(x))
        sign = -1.0 if self.n % 2 else 1.0
        k_out = sign / (math.pi * pr.hbar) * math.exp(-a * xb**2)
        # L_n(2a xb^2 + 2b p^2) expanded in p by Horner on the shifted argument
        base = np.polynomial.Polynomial([2.0 * a * xb**2, 0.0, 2.0 * b])
        coeffs = [(-1.0) ** k * math.comb(self.n, k) / math.factorial(k) for k in range(self.n + 1)]
        q = np.polynomial.Polynomial([coeffs[-1]])
        for c in coeffs[-2::-1]:
            q = q * base + c
        return q, k_out, b

    def p_derivative(self, order, x, p):
        """Exact d^order W / dp^order at the scalar point (x, p)."""
        if order < 0 or int(order) != order:
            raise ValueError(f"derivative order must be a non-negative integer, got {order}")
        q, k_out, b = self._p_polynomial(x)
        two_b_p = np.polynomial.Polynomial([0.0, 2.0 * b])
        for _ in range(int(order)):
            q = q.deriv() - two_b_p * q
        p = float(p)
        return k_out * math.exp(-b * p**2) * float(q(p))


def stationary_field(params: OscillatorParams, n) -> StationaryWigner:
    """Field factory for the stationary Wigner function of eigenstate ``n``."""
    return StationaryWigner(params, check_order(n))


def wigner_stationary(params: OscillatorParams, n, pt: PhasePoint) -> float:
    """Stationary Wigner value ((-1)^n/(pi hbar)) exp(-2 eps) L_n(4 eps) at a point."""
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
    """Position density |Psi_n(xbar)|^2 of eigenstate ``n``."""
    n = check_order(n)
    xi = np.sqrt(params.m * params.omega / params.hbar) * (np.asarray(x, dtype=float) + params.shift)
    amp = _hermite_gauss(n, xi)
    out = math.sqrt(params.m * params.omega / (math.pi * params.hbar)) * np.asarray(amp) ** 2
    return out if np.ndim(x) else float(out)


def momentum_density(params: OscillatorParams, n, p):
    """Momentum density |Psi~_n(p)|^2 of eigenstate ``n``.

    Mirror of the position density under xbar sqrt(m omega/hbar) <->
    p/sqrt(m hbar omega); validated against the quadrature of the Wigner
    function over x rather than trusted as a formula.
    """
    n = check_order(n)
    eta = np.asarray(p, dtype=float) / math.sqrt(params.m * params.hbar * params.omega)
    amp = _hermite_gauss(n, eta)
    out = np.asarray(amp) ** 2 / math.sqrt(math.pi * params.m * params.hbar * params.omega)
    return out if np.ndim(p) else float(out)


def wavefunction(params: OscillatorParams, n, x):
    """Real eigenfunction Psi_n evaluated at the unshifted coordinate x."""
    n = check_order(n)
    xi = np.sqrt(params.m * params.omega / params.hbar) * (np.asarray(x, dtype=float) + params.shift)
    norm = (params.m * params.omega / (math.pi * params.hbar)) ** 0.25
    out = norm * _hermite_gauss(n, xi)
    return out if np.ndim(x) else float(out)


def wigner_from_wavefunction(params: OscillatorParams, n, pt: PhasePoint,
                             quad: QuadratureSpec | None = None,
                             return_error: bool = False):
    """Wigner value by Fourier transform of the eigenfunction pair product.

    Evaluates (1/(2 pi hbar)) * integral of exp(-i p s / hbar)
    Psi_n(xbar + s/2) Psi_n(xbar - s/2) ds for the pure eigenstate; the
    integrand is real (cosine) because Psi_n is real.  Independent of the
    closed form, hence usable as an oracle for it.  Raises
    ``AccuracyError`` when the mesh-halving estimate exceeds ``quad.tol``.
    """
    value, est = _transform_lines(params, check_order(n), pt.x, pt.p, quad or DEFAULT_QUAD)
    return (value, est) if return_error else value


def _transform_lines(params: OscillatorParams, n: int, x: float, p, quad: QuadratureSpec):
    """Transform values and estimates at position ``x`` for one momentum or an array of them.

    The momenta share the integration window, which depends on ``x`` only,
    so their lines run as one batch of :func:`_line_integral`; each gets
    the bits a call with that momentum alone would give.
    """
    xb = shifted_x(params, x)
    width = math.sqrt(params.hbar / (params.m * params.omega))
    s_max = 2.0 * (abs(xb) + quad.line_window * width)
    lines = np.asarray(p, dtype=float)[..., None]

    def integrand(s):
        left = wavefunction(params, n, x + s / 2.0)
        right = wavefunction(params, n, x - s / 2.0)
        return np.cos(lines * s / params.hbar) * left * right / (2.0 * math.pi * params.hbar)

    return _line_integral(integrand, -s_max, s_max, quad.n_line, quad.tol,
                          "wigner_from_wavefunction")
