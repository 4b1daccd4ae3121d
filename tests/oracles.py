"""Independent oracles used by the tests.

Series oracles run in exact rational arithmetic so they are immune to the
cancellation that motivates the recurrences in the library; the quadrature
helpers are deliberately separate from the library's integration code,
the upwind loop steps the scheme the library applies in closed form, the
whole-grid transform and maximum form at once what the library forms one
block of rings at a time, and the field writer and reader format and parse
one value at a time where the library streams whole rings and hands the
body to ``np.loadtxt``.  The whole-array kernels evaluate each formula
with a fresh temporary per step: the library's ``laguerre`` and
``polar_from_xy`` run the same operations in place on preallocated arrays
and must reproduce them bit for bit, and its ``hermite`` and ``energy_xy``
take the same form.  The unit scales those formulas use are restated here
from (m, omega, hbar, alpha), as the products and quotients of square
roots that ``OscillatorParams`` forms, and not read from it.
"""

import functools
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi


def core_scales(params):
    """sigma_x, sigma_p, rho_scale, value_scale and shift, restated from (m, omega, hbar, alpha)."""
    root_m, root_w, root_h = math.sqrt(params.m), math.sqrt(params.omega), math.sqrt(params.hbar)
    sigma_x = root_h / root_m / root_w
    sigma_p = root_m * root_h * root_w
    return SimpleNamespace(sigma_x=sigma_x, sigma_p=sigma_p, rho_scale=root_h * root_w / root_m,
                           value_scale=1.0 / (math.pi * params.hbar),
                           shift=params.alpha / params.omega / sigma_p * sigma_x)


def lag_exact(n, x):
    """L_n(x) = sum_k C(n,k) (-x)^k / k! as an exact fraction of the float or fraction x."""
    xq = Fraction(x)
    return sum(Fraction(math.comb(n, k)) * (-xq) ** k / Fraction(math.factorial(k))
               for k in range(n + 1))


def lag_series(n, x):
    """L_n(x) = sum_k C(n,k) (-x)^k / k!, evaluated exactly."""
    return float(lag_exact(n, x))


_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


def wigner_kernel_exact(n, rho, m=1.0, omega=1.0, hbar=1.0):
    """((-1)^n / (pi hbar)) exp(-2 eps) L_n(4 eps) at the double ``rho``, to 40 digits.

    eps = m rho^2 / (2 hbar omega) and L_n(4 eps) are exact rationals of the
    binary inputs; the exponential and pi carry 40 significant digits.
    """
    eps = Fraction(m) * Fraction(rho) ** 2 / (2 * Fraction(hbar) * Fraction(omega))
    lag = lag_exact(n, 4 * eps)
    with localcontext() as ctx:
        ctx.prec = 40
        exp = (Decimal(-2 * eps.numerator) / Decimal(eps.denominator)).exp()
        value = (Decimal(lag.numerator) / Decimal(lag.denominator)) * exp \
            / (_PI_50 * Decimal(hbar))
        return -value if n % 2 else value


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


def p_derivative_polynomial(W, order, x, p):
    """d^order W / dp^order of a ``StationaryWigner`` by ``numpy.polynomial.Polynomial`` algebra.

    The library's ``p_derivative`` must give these bits: it does the same
    operations on plain coefficient arrays, with no ``numpy.polynomial``.
    """
    c = core_scales(W.params)
    xi = (float(x) + c.shift) / c.sigma_x
    eta = float(p) / c.sigma_p
    sign = -1.0 if W.n % 2 else 1.0
    gauss = sign * c.value_scale * math.exp(-(xi * xi)) * math.exp(-(eta * eta))
    if gauss == 0.0:
        return 0.0
    q = _laguerre_in_eta(W.n, xi)
    two_eta = np.polynomial.Polynomial([0.0, 2.0])
    for _ in range(int(order)):
        q = q.deriv() - two_eta * q
    value = float(q(eta)) * gauss
    for _ in range(int(order)):
        value /= c.sigma_p
    return value


@functools.lru_cache(maxsize=256)
def _laguerre_in_eta(n, xi):
    """L_n(2 xi^2 + 2 eta^2) as a ``Polynomial`` in eta, by Horner on the shifted argument."""
    base = np.polynomial.Polynomial([2.0 * (xi * xi), 0.0, 2.0])
    coeffs = [(-1.0) ** k * math.comb(n, k) / math.factorial(k) for k in range(n + 1)]
    q = np.polynomial.Polynomial([coeffs[-1]])
    for c in coeffs[-2::-1]:
        q = q * base + c
    return q


@functools.lru_cache(maxsize=None)
def gauss_legendre_exact(n):
    """Gauss-Legendre nodes and weights of order ``n`` on [-1, 1], ascending, to 40 digits.

    Newton's method in ``decimal`` arithmetic on (j+1) P_{j+1} = (2j+1) x P_j
    - j P_{j-1}, started from numpy's nodes and run until a step is below
    1e-38; the weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged nodes.
    """
    def legendre(x):
        prev, cur = Decimal(1), x
        for j in range(1, n):
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
        return cur, n * (x * cur - prev) / (x * x - 1)

    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for start in np.polynomial.legendre.leggauss(n)[0]:
            x = Decimal(float(start))
            for _ in range(8):
                p, dp = legendre(x)
                x -= p / dp
                if abs(p / dp) < Decimal("1e-38"):
                    break
            dp = legendre(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


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


def evolve_fd_whole_grid(field0, params, t_final):
    """The closed-form upwind run of ``evolve_fd`` on the whole grid at once.

    Restates the step count, the partial step and the Courant-1 shift, and
    multiplies one ``rfft`` of every ring by the run's gain before one
    ``irfft``: the library's block-by-block transforms must give these
    values bit for bit.
    """
    grid = field0.grid
    dphi = TWO_PI / grid.n_phi
    c = params.omega * grid.dt / dphi
    span = t_final - field0.time_tag
    steps = int(math.floor(span / grid.dt + 1e-9))
    remainder = span - steps * grid.dt
    partial = remainder > 1e-12 * max(grid.dt, 1.0)
    if steps == 0 and not partial:
        return np.array(field0.values)
    shift = np.exp(1j * dphi * np.arange(grid.n_phi // 2 + 1)) - 1.0
    gain = (1.0 + c * shift) ** (steps % grid.n_phi if c == 1.0 else steps)
    if partial:
        gain = gain * (1.0 + params.omega * remainder / dphi * shift)
    return np.fft.irfft(np.fft.rfft(field0.values, axis=1) * gain, n=grid.n_phi, axis=1)


def max_deviation_whole_grid(field, W, params):
    """max |W - field| from the whole sampled grid of W at the field's time tag."""
    from phasewave import sample_field

    exact = sample_field(W, field.grid, field.time_tag, params).values
    return float(np.max(np.abs(exact - field.values)))


_FIELD_META_KEYS = ("n", "ell", "A", "C", "m", "omega", "hbar", "alpha", "t",
                    "rho_max", "n_rho", "n_phi", "dt")


def _fmt17(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return f"{float(v):.17g}"


def export_field_per_value(field, params, fmt, path, extra=None):
    """Write a field as CSV or JSON, formatting each value on its own."""
    meta = {
        "m": params.m, "omega": params.omega, "hbar": params.hbar,
        "alpha": params.alpha, "t": field.time_tag,
        "rho_max": field.grid.rho_max, "n_rho": field.grid.n_rho,
        "n_phi": field.grid.n_phi,
    }
    if field.grid.dt is not None:
        meta["dt"] = field.grid.dt
    if extra:
        meta.update({k: v for k, v in extra.items() if v is not None})
    meta = {k: meta[k] for k in _FIELD_META_KEYS if k in meta}
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        if fmt == "csv":
            rho = field.grid.rho_nodes()
            phi = field.grid.phi_nodes()
            c = core_scales(params)
            r = rho[:, None] / c.rho_scale
            x = c.sigma_x * r * np.cos(phi[None, :]) - c.shift
            p = c.sigma_p * r * np.sin(phi[None, :])
            lines = [f"# {k}={_fmt17(v)}" for k, v in meta.items()]
            lines.append("rho,phi,x,p,W")
            for i in range(field.grid.n_rho):
                for j in range(field.grid.n_phi):
                    lines.append(",".join(_fmt17(v) for v in (
                        rho[i], phi[j], x[i, j], p[i, j], field.values[i, j])))
            fh.write("\n".join(lines) + "\n")
        else:
            json.dump({
                "kind": "phasewave-field",
                "params": meta,
                "grid": {"rho_max": field.grid.rho_max, "n_rho": field.grid.n_rho,
                         "n_phi": field.grid.n_phi, "dt": field.grid.dt},
                "time": field.time_tag,
                "values": field.values.tolist(),
            }, fh)
            fh.write("\n")


def read_field_line_by_line(path):
    """Parse a field file with ``float()`` per token; returns (values, time, meta).

    Values come back as an (n_rho, n_phi) array.  Only well-formed files are
    handled: this is a reference for contents, not for error reporting.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return np.asarray(doc["values"], dtype=float), doc["time"], dict(doc["params"])
    meta = {}
    rows = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            key, _, raw = line[1:].strip().partition("=")
            key = key.strip()
            meta[key] = int(raw) if key in ("n", "ell", "n_rho", "n_phi") else float(raw)
        elif line != "rho,phi,x,p,W":
            rows.append([float(tok) for tok in line.split(",")])
    values = np.asarray(rows, dtype=float)[:, 4].reshape(meta["n_rho"], meta["n_phi"])
    return values, meta["t"], meta


def laguerre_whole_array(n, x):
    """L_n(x) by (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1} over the whole array."""
    xs = np.asarray(x, dtype=float)
    prev = np.ones_like(xs)
    if n == 0:
        return prev if xs.ndim else 1.0
    cur = 1.0 - xs
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 - xs) * cur - k * prev) / (k + 1.0)
    return cur if xs.ndim else float(cur)


def hermite_whole_array(n, x):
    """H_n(x) by H_{k+1} = 2x H_k - 2k H_{k-1} over the whole array."""
    xs = np.asarray(x, dtype=float)
    prev = np.ones_like(xs)
    if n == 0:
        return prev if xs.ndim else 1.0
    cur = 2.0 * xs
    for k in range(1, n):
        prev, cur = cur, 2.0 * xs * cur - 2.0 * k * prev
    return cur if xs.ndim else float(cur)


def polar_from_xy_whole_array(params, x, p):
    """(x, p) -> (rho_scale hypot(xi, eta), atan2(eta, xi) mod 2pi), phi(origin) = 0."""
    c = core_scales(params)
    xi = (np.asarray(x, dtype=float) + c.shift) / c.sigma_x
    eta = np.asarray(p, dtype=float) / c.sigma_p
    rho = c.rho_scale * np.hypot(xi, eta)
    phi = np.arctan2(eta, xi) % TWO_PI
    phi = np.where(phi >= TWO_PI, 0.0, phi)
    phi = np.where(rho == 0.0, 0.0, phi)
    return rho, phi


def energy_xy_whole_array(params, x, p):
    """Dimensionless energy (xi^2 + eta^2)/2 with xi = xbar/sigma_x and eta = p/sigma_p."""
    c = core_scales(params)
    xi = (np.asarray(x, dtype=float) + c.shift) / c.sigma_x
    eta = np.asarray(p, dtype=float) / c.sigma_p
    return 0.5 * (xi * xi + eta * eta)
