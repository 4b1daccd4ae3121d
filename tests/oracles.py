"""Independent oracles used by the tests.

Series oracles run in exact rational arithmetic so they are immune to the
cancellation that motivates the recurrences in the library; the quadrature
helpers are deliberately separate from the library's integration code, and
the upwind loop steps the scheme the library applies in closed form.
"""

import math
from fractions import Fraction

import numpy as np


def lag_series(n, x):
    """L_n(x) = sum_k C(n,k) (-x)^k / k!, evaluated exactly."""
    xq = Fraction(x)
    total = sum(Fraction(math.comb(n, k)) * (-xq) ** k / Fraction(math.factorial(k))
                for k in range(n + 1))
    return float(total)


def herm_series(n, x):
    """H_n(x) = n! sum_k (-1)^k (2x)^(n-2k) / (k! (n-2k)!), evaluated exactly."""
    xq = Fraction(x)
    total = Fraction(0)
    for k in range(n // 2 + 1):
        total += (Fraction((-1) ** k) * (2 * xq) ** (n - 2 * k)
                  / (Fraction(math.factorial(k)) * Fraction(math.factorial(n - 2 * k))))
    return float(Fraction(math.factorial(n)) * total)


def simpson(f, a, b, n_panels):
    """Plain composite Simpson rule, independent of the library's version."""
    n = n_panels + n_panels % 2
    xs = np.linspace(a, b, n + 1)
    vals = np.asarray(f(xs), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * (vals[0] + vals[-1]
                            + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()))


def cartesian_integral(W, half, n_panels, t=0.0):
    """Tensor-grid 2-D Simpson integral of W over [-half, half]^2."""
    n = n_panels + n_panels % 2
    xs = np.linspace(-half, half, n + 1)
    h = (2.0 * half) / n
    w1 = np.ones(n + 1)
    w1[1:-1:2] = 4.0
    w1[2:-1:2] = 2.0
    vals = np.asarray(W(xs[:, None], xs[None, :], t), dtype=float)
    return float((h / 3.0) ** 2 * (w1[:, None] * w1[None, :] * vals).sum())


def gauss_legendre(f, a, b, n_nodes):
    """Gauss-Legendre quadrature on [a, b] via numpy's node tables."""
    xg, wg = np.polynomial.legendre.leggauss(n_nodes)
    xs = 0.5 * (b - a) * (xg + 1.0) + a
    return float(0.5 * (b - a) * np.dot(wg, np.asarray(f(xs), dtype=float)))


def upwind_roll_loop(values, c, steps, c_rem=0.0):
    """First-order upwind advection stepped one ``np.roll`` pass at a time.

    Applies v += c (roll(v, -1) - v) ``steps`` times along axis 1, then one
    partial step with Courant number ``c_rem`` if it is nonzero.
    """
    vals = np.array(values, dtype=float)
    for _ in range(steps):
        vals += c * (np.roll(vals, -1, axis=1) - vals)
    if c_rem:
        vals += c_rem * (np.roll(vals, -1, axis=1) - vals)
    return vals
