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
    """Gaussian-Laguerre kernel ((-1)^n / (pi hbar)) exp(-2 eps) L_n(4 eps) of the energy eps."""
    sign = -1.0 if n % 2 else 1.0
    return sign / (math.pi * params.hbar) * np.exp(-2.0 * eps) * laguerre(n, 4.0 * eps)


def radial_kernel(params: OscillatorParams, n, rho):
    """Radial factor ((-1)^n / (pi hbar)) exp(-m rho^2/(hbar omega)) L_n(2 m rho^2/(hbar omega))."""
    n = check_order(n)
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
    """H_n(xi) exp(-xi^2/2) / sqrt(2^n n!), the weight folded into the exponent for large n."""
    return hermite(n, xi) * np.exp(0.5 * (log_weight(n) - xi**2))


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
    n = check_order(n)
    quad = quad or DEFAULT_QUAD
    xb = shifted_x(params, pt.x)
    width = math.sqrt(params.hbar / (params.m * params.omega))
    s_max = 2.0 * (abs(xb) + quad.line_window * width)

    def integrand(s):
        left = wavefunction(params, n, pt.x + s / 2.0)
        right = wavefunction(params, n, pt.x - s / 2.0)
        return np.cos(pt.p * s / params.hbar) * left * right / (2.0 * math.pi * params.hbar)

    value, est = _line_integral(integrand, -s_max, s_max, quad.n_line, quad.tol,
                                "wigner_from_wavefunction")
    return (value, est) if return_error else value
