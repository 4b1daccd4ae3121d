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

MAX_ORDER = 64


def check_order(n):
    """Validate a polynomial/state index, returning it as a plain int."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {n!r}")
    if n < 0 or n > MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {n}")
    return int(n)


def _finite_values(x, name):
    vals = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name}: argument must be finite")
    return vals


#: Elements per block of the blocked kernels: a block's few working arrays
#: (8 bytes an element) stay in a core's L2 cache while a recurrence runs.
_BLOCK = 16384


def _blocked(kernel, inputs, n_out=1, n_work=0):
    """Evaluate an elementwise kernel over flat blocks of its broadcast inputs.

    ``kernel(outs, ins, work)`` receives lists of views of one block each:
    the outputs to fill, the inputs (read only; a one-element input comes
    as a 0-d array for the kernel's ufuncs to broadcast) and scratch
    arrays.  Buffers are allocated per call, so concurrent calls share
    nothing.  Returns the outputs as arrays of the broadcast shape.
    """
    ins = [np.asarray(a, dtype=float) for a in inputs]
    shape = np.broadcast(*ins).shape
    outs = [np.empty(shape) for _ in range(n_out)]
    flat = [o.reshape(-1) for o in outs]
    size = flat[0].size
    ins = [a.reshape(()) if a.size == 1
           else (a if a.shape == shape else np.broadcast_to(a, shape)).ravel() for a in ins]
    work = [np.empty(min(size, _BLOCK)) for _ in range(n_work)]
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        kernel([o[lo:hi] for o in flat], [a if a.ndim == 0 else a[lo:hi] for a in ins],
               [w[:hi - lo] for w in work])
    return outs


def laguerre(n, x):
    """Evaluate the Laguerre polynomial L_n(x).

    Uses (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, in place over blocks of
    ``_BLOCK`` elements.  Accepts scalars or arrays; scalar input returns a
    float.
    """
    n = check_order(n)
    xs = _finite_values(x, "laguerre")
    if n == 0:
        return np.ones_like(xs) if xs.ndim else 1.0

    def kernel(outs, ins, work):
        (out,), (x,), (prev, nxt) = outs, ins, work
        cur = out
        np.subtract(1.0, x, out=cur)
        prev.fill(1.0)
        for k in range(1, n):
            np.subtract(2.0 * k + 1.0, x, out=nxt)
            nxt *= cur
            prev *= k
            nxt -= prev
            nxt /= k + 1.0
            prev, cur, nxt = cur, nxt, prev
        if cur is not out:
            out[...] = cur

    (out,) = _blocked(kernel, [xs], n_work=2)
    return out if xs.ndim else float(out)


def hermite(n, x):
    """Evaluate the physicists' Hermite polynomial H_n(x).

    Uses H_{k+1} = 2x H_k - 2k H_{k-1}.
    """
    n = check_order(n)
    xs = _finite_values(x, "hermite")
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
