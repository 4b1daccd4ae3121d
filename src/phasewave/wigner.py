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

from .errors import AccuracyError, DataError, _integer, _require_finite, coordinate
from .oscillator import NATURAL_UNITS, TWO_PI, OscillatorParams, energy_xy, xi_of
from .quadrature import EXTENT, LINE_REFINE, N_LINE, TOL, _line_integral
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
        object.__setattr__(self, "n", check_order(self.n))

    def __call__(self, x, p, t=0.0):
        _require_finite(t, "t")
        return _kernel(self.params, self.n, energy_xy(self.params, x, p))

    def polar_factors(self, rho, phi, t=0.0):
        """Radial factor at the radii ``rho`` and angular factor at the angles ``phi``.

        W(rho_i, phi_j, t) = radial[i] * angular[j]; an eigenstate has no
        angular dependence, so its angular factor is 1.
        """
        _require_finite(t, "t")
        angular = np.ones(np.shape(_require_finite(phi, "phi")))
        return radial_kernel(self.params, self.n, rho), angular

    @np.errstate(over="ignore", invalid="ignore")  # refused below, not warned
    def p_derivative(self, order, x, p):
        """Exact d^order W / dp^order at the scalar point (x, p).

        W(x, p) = K exp(-xi^2) exp(-eta^2) q(eta) with q a polynomial, and
        each derivative in p is one in eta divided by sigma_p.  Where the
        Gaussian underflows the value is 0, and q, which could overflow
        there, is not formed.  A value that is not finite, as q's
        coefficients overflow at orders past about 250, raises ``DataError``
        naming the order and the point.
        """
        order = _integer(order, "derivative order")
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
        for _ in range(order):
            dq = q[1:] * np.arange(1, len(q)) if len(q) > 1 else q * 0
            q = -np.convolve(two_eta, q)
            q[:len(dq)] += dq
        # Horner at 0.0 + eta, where numpy.polynomial evaluates, so -0.0 as 0.0
        value = float(np.polyval(q[::-1], 0.0 + eta)) * gauss
        for _ in range(order):
            value /= pr.sigma_p
        if not math.isfinite(value):
            raise DataError(f"d^{order}W/dp^{order} at (x, p) = ({x!r}, {p!r}) is {value!r}, "
                            f"not a finite double")
        return value


def stationary_field(params: OscillatorParams, n) -> StationaryWigner:
    """Field factory for the stationary Wigner function of eigenstate ``n``."""
    return StationaryWigner(params, n)


def wigner_stationary(params: OscillatorParams, n, x, p) -> float:
    """Stationary Wigner value (-1)^n value_scale exp(-2 eps) L_n(4 eps) at the point (x, p)."""
    return float(stationary_field(params, n)(x, p))


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


def wigner_from_wavefunction(params: OscillatorParams, n, x, p, return_error: bool = False):
    """Wigner values by Fourier transform of the eigenfunction pair product.

    Evaluates (1/(2 pi hbar)) * integral of exp(-i p s / hbar)
    Psi_n(xbar + s/2) Psi_n(xbar - s/2) ds for the pure eigenstate; the
    integrand is real (cosine) because Psi_n is real.  Independent of the
    closed form, hence usable as an oracle for it.  In widths it is 1/hbar
    times an integral over s/sigma_x, which spans 2 (|xi| + ``EXTENT``) on
    ``N_LINE`` trapezoid panels, refined by midpoints where needed; raises
    ``AccuracyError`` when its mesh-halving estimate exceeds ``TOL``.  A
    line is accepted only on a step h <= pi / (|eta| + ``EXTENT``), where
    neither the mesh nor its sub-mesh aliases the transform, and a
    momentum that would need more panels than the rule refines to raises
    ``AccuracyError`` naming p and the panels.

    ``x`` and ``p`` are finite numbers or arrays that broadcast together,
    and the result has their broadcast shape; a NaN or infinite entry
    raises ``DataError`` naming its coordinate.  A line's window depends on
    its position only, so the eigenfunction pair product is formed once per
    position for all the momenta, and the lines run as one batch of the
    line rule; each gets the bits a call with that point alone would give.
    """
    n = check_order(n)
    xi = np.asarray(xi_of(params, _require_finite(x, "x")))
    s_max = 2.0 * (np.abs(xi) + EXTENT)  # psi_n is negligible past EXTENT widths
    centers = xi[..., None]
    p = np.asarray(_require_finite(p, "p"))
    # Poisson summation: a mesh of step h adds W at eta + 2 pi k / h for every k != 0,
    # and W is below TOL past EXTENT widths, so a mesh is free of aliases when
    # h <= 2 pi / (|eta| + EXTENT).  The estimate compares the mesh with its sub-mesh
    # of step 2 h, so the line rule takes half that step as its bound.  An eta or a
    # panel count that overflows is refused below.
    with np.errstate(over="ignore"):
        eta = p / params.sigma_p
        max_step = math.pi / (np.abs(eta) + EXTENT)
        panels = 2.0 * s_max * (np.abs(eta) + EXTENT) / math.pi
        if np.any(panels > LINE_REFINE * N_LINE):
            worst = np.unravel_index(np.argmax(panels), panels.shape)
            at = float(np.broadcast_to(p, panels.shape)[worst])
            need = N_LINE * np.exp2(np.ceil(np.log2(panels[worst] / N_LINE)))
            raise AccuracyError(f"wigner_from_wavefunction: p = {at!r} needs {need:g} panels to "
                                f"keep the transform from aliasing, more than "
                                f"{LINE_REFINE * N_LINE}")
    lines = eta[..., None]

    def integrand(s):  # the eigenfunctions of unit width are those of natural units
        left = wavefunction(NATURAL_UNITS, n, centers + s / 2.0)
        right = wavefunction(NATURAL_UNITS, n, centers - s / 2.0)
        return np.cos(lines * s) * left * right / TWO_PI

    value, est = _line_integral(integrand, -s_max, s_max, N_LINE, TOL, "wigner_from_wavefunction",
                                max_step)
    value, est = value / params.area, est / params.area
    return (value, est) if return_error else value
