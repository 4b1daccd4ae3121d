"""Laguerre and Hermite polynomials by stable three-term recurrences.

Closed-form series for these polynomials cancel catastrophically once the
argument is large, so evaluation always goes through the recurrences; the
series form survives only as a test oracle.  Orders are capped at
``MAX_ORDER``: beyond that the recurrences still run but rounding is no
longer guaranteed to stay below the documented tolerances, so the
functions reject instead of silently degrading.
"""

import math

import numpy as np

from .errors import _integer, _require_finite

MAX_ORDER = 64


def check_order(n):
    """Validate a polynomial/state index, returning it as a plain int."""
    return _integer(n, "order", 0, MAX_ORDER)


def laguerre(n, x):
    """Evaluate the Laguerre polynomial L_n(x).

    Uses (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, in place on three
    working arrays.  Accepts scalars or arrays; scalar input returns a
    float.  A NaN or infinite ``x`` raises ``DataError`` naming it.
    """
    n = check_order(n)
    xs = np.asarray(_require_finite(x, "x"))
    prev = np.ones_like(xs)
    if n == 0:
        return prev if xs.ndim else 1.0
    cur, nxt = np.subtract(1.0, xs, out=np.empty_like(xs)), np.empty_like(xs)
    for k in range(1, n):
        np.subtract(2.0 * k + 1.0, xs, out=nxt)
        nxt *= cur
        prev *= k
        nxt -= prev
        nxt /= k + 1.0
        prev, cur, nxt = cur, nxt, prev
    return cur if xs.ndim else float(cur)


def hermite(n, x):
    """Evaluate the physicists' Hermite polynomial H_n(x).

    Uses H_{k+1} = 2x H_k - 2k H_{k-1}.
    """
    n = check_order(n)
    xs = np.asarray(_require_finite(x, "x"))
    prev = np.ones_like(xs)
    if n == 0:
        return prev if xs.ndim else 1.0
    two_x = 2.0 * xs
    cur = two_x
    for k in range(1, n):
        prev, cur = cur, two_x * cur - 2.0 * k * prev
    return cur if xs.ndim else float(cur)


def log_weight(n):
    """Return log(1 / (2**n n!)) computed as a sum of logarithms.

    Densities fold this into the Gaussian exponent before exponentiating,
    which keeps intermediate magnitudes representable at large order where
    a literal 1/(2**n n!) times a squared Hermite value would not be.
    """
    n = check_order(n)
    return -(n * math.log(2.0) + sum(math.log(k) for k in range(2, n + 1)))
