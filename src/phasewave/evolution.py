"""Phase-plane dynamics and finite-difference verification.

In polar coordinates the quadratic-potential transport equation reduces to
W_t = omega W_phi: values ride unchanged along rotating characteristics,
which gives an exact propagator for any initial field.  A first-order
upwind scheme integrates the same equation numerically; its step is a
circulant map on each ring, so the whole run is applied in closed form as
one multiply of the angular spectrum, at a cost independent of the time
span.  Central residual stencils measure how well sampled fields satisfy
the first-order transport equation and the second-order membrane wave
equation W_tt = omega^2 W_phiphi.  For polynomial potentials the
right-hand side of the quantum transport (Moyal) equation is a finite sum
of odd-order momentum derivatives; it vanishes identically for quadratic
potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (BlowupError, ConfigurationError, DataError, _integer, _real, _reals,
                     _require_finite, coordinate)
from .oscillator import TWO_PI, OscillatorParams, _phase, _polar_grid, polar_from_xy, xy_from_polar

MAX_POTENTIAL_DEGREE = 12


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling grid; ``dt`` is required only for time stepping.

    Sampling and export work on any grid; the time stepper additionally
    requires at least 16 angular nodes.  Lengths are kept as floats and
    counts as ints.  The node formula forms n_rho * rho_max, so a grid
    where that product, or n_rho itself, is past the doubles is refused
    with ``DataError``.
    """

    rho_max: float
    n_rho: int
    n_phi: int
    dt: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "rho_max", _real(self.rho_max, "rho_max", positive=True))
        object.__setattr__(self, "n_rho", _integer(self.n_rho, "n_rho", 1))
        if not math.isfinite(_real(self.n_rho, "n_rho") * self.rho_max):
            raise DataError(f"rho_max = {self.rho_max!r} takes n_rho * rho_max past the doubles")
        object.__setattr__(self, "n_phi", _integer(self.n_phi, "n_phi", 2))
        if self.dt is not None:
            object.__setattr__(self, "dt", _real(self.dt, "dt", positive=True))

    @property
    def delta_phi(self) -> float:
        return TWO_PI / self.n_phi

    def rho_nodes(self) -> np.ndarray:
        """Radial nodes (i+1) * rho_max / n_rho; the singular origin is excluded."""
        return (np.arange(self.n_rho) + 1.0) * self.rho_max / self.n_rho

    def phi_nodes(self) -> np.ndarray:
        """Angular nodes 2 pi j / n_phi, periodic with no duplicated endpoint."""
        return TWO_PI * np.arange(self.n_phi) / self.n_phi


@dataclass(frozen=True, eq=False)
class Field2D:
    """Values sampled on a polar grid, rho-major so rings are contiguous."""

    grid: GridSpec
    values: np.ndarray
    time_tag: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = _reals(self.values, "values")
        if vals.shape != (self.grid.n_rho, self.grid.n_phi):
            raise DataError(
                f"values shape {vals.shape} does not match grid "
                f"({self.grid.n_rho}, {self.grid.n_phi})"
            )
        if not np.all(np.isfinite(vals)):
            raise DataError("field values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "time_tag", _real(self.time_tag, "time_tag"))


@dataclass(frozen=True)
class Rotation:
    """Initial field ``W0(x, p, t)``, used at t = 0, carried by the exact flow for ``elapsed``.

    A rotation is a field: its trailing time, one or an array, is checked as
    a field class checks it and otherwise ignored.  Its ``polar_factors``
    are those of ``W0`` at the turned angles, read through ``_polar_grid``,
    so the angular factor is a grid when ``W0`` is a bare callable.
    """

    W0: Callable
    params: OscillatorParams
    elapsed: float

    def _start_angle(self, phi):
        return (phi + self.params.omega * self.elapsed) % TWO_PI

    def __call__(self, x, p, t=0.0):
        _require_finite(t, "t")
        rho, phi = polar_from_xy(self.params, x, p)
        x0, p0 = xy_from_polar(self.params, rho, self._start_angle(phi))
        return self.W0(x0, p0, 0.0)

    def polar_factors(self, rho, phi, t=0.0):
        _require_finite(t, "t")
        phi = _require_finite(phi, "phi")
        return _polar_grid(self.W0, self.params, rho, self._start_angle(phi), 0.0)


def propagate_exact(W0, params: OscillatorParams, t: float) -> Rotation:
    """Exact solution of W_t = omega W_phi for the initial field ``W0``.

    ``W0`` is a field ``W(x, p, t)``, a field class or a bare callable,
    used at t = 0; a callable of (x, p) alone is refused with ``TypeError``
    when the rotation is evaluated.  Returns the field at time ``t``, i.e.
    (x, p) -> W0 evaluated at the same radius and angle phi + omega t.  It
    always has ``polar_factors``, whose angular factor is an
    (n_rho, n_phi) grid when ``W0`` is a bare callable.  A NaN or infinite
    ``t`` raises ``DataError``, and so does a finite one whose angle
    omega t overflows.
    """
    _phase(params.omega, _real(t, "t"))
    return Rotation(W0, params, t)


#: Values in one block of rings: a block's input, spectrum and output (about
#: 1.5 MB) stay in a 2 MB L2 cache.  Of 2^12, 2^14, 2^16 and 2^18, 2^16 ran
#: ``evolve`` at 256 x 1024 fastest (2-core x86-64 VM, 2 MiB of L2 per core).
_BLOCK_VALUES = 2**16


def _ring_blocks(grid: GridSpec, per_node: int = 1) -> list:
    """Slices of whole rings, each of about ``_BLOCK_VALUES`` values, that cover the grid.

    A node counts ``per_node`` values (a CSV row holds five).  A ring longer
    than a block is a block of its own.
    """
    rings = max(1, _BLOCK_VALUES // (per_node * grid.n_phi))
    return [slice(i, min(i + rings, grid.n_rho)) for i in range(0, grid.n_rho, rings)]


def _upwind_run(grid: GridSpec, params: OscillatorParams, t_start, t_final):
    """Check an upwind run on ``grid`` from ``t_start`` to ``t_final``; return its steps, c, gain.

    Requires ``grid.dt``, at least 16 angular nodes, Courant number
    c = omega dt / delta_phi <= 1 and a span that does not run backwards.
    The gain multiplies each ring's ``rfft`` spectrum by the whole run: a
    step v += c (v[j+1] - v[j]) multiplies angular wavenumber k by
    g_k = 1 + c (e^{i k delta_phi} - 1), so the run is g_k^steps times the
    final partial step's factor.  At c = 1 exactly a step is a one-node
    ring shift, g_k^n_phi = 1, and the power is taken as steps % n_phi, so
    long runs stay exact shifts.  The gain is None when no step runs.

    Its tolerances are fractions of one step, so they hold in any units:
    a step may move 1e-12 of an angular cell past one cell
    (c <= 1 + 1e-12), and a span within 1e-9 of a step of a whole count of
    steps, on either side, is that count, so the rounding of a long span
    (about 2.2e-16 of a step per step) adds no partial step below some
    4 million steps.
    """
    if grid.n_phi < 16:
        raise ConfigurationError(f"time stepping needs n_phi >= 16, got {grid.n_phi}")
    if grid.dt is None:
        raise ConfigurationError("grid.dt must be set for time stepping")
    c = params.omega * grid.dt / grid.delta_phi
    if c > 1.0 + 1e-12:
        raise ConfigurationError(
            f"Courant number {c:.6g} exceeds 1; reduce dt below "
            f"{grid.delta_phi / params.omega:.6g}"
        )
    span = _real(t_final, "t_final") - t_start
    if span < 0.0:
        raise ConfigurationError("t_final precedes the field's time tag")
    steps = int(math.floor(span / grid.dt + 1e-9))
    remainder = span - steps * grid.dt
    partial = remainder > 1e-9 * grid.dt
    if steps == 0 and not partial:
        return 0, c, None
    shift = np.exp(1j * grid.delta_phi * np.arange(grid.n_phi // 2 + 1)) - 1.0
    gain = (1.0 + c * shift) ** (steps % grid.n_phi if c == 1.0 else steps)
    if partial:
        gain *= 1.0 + params.omega * remainder / grid.delta_phi * shift
    return steps + int(partial), c, gain


def _block_buffer(grid: GridSpec, spectrum: bool = False) -> np.ndarray:
    """An empty array for the largest block of ``_ring_blocks(grid)``: its values, or its spectrum.

    A block's leading rows of it hold any smaller block, so one buffer
    serves every block of a walk.
    """
    rings = _ring_blocks(grid)[0].stop
    if spectrum:
        return np.empty((rings, grid.n_phi // 2 + 1), dtype=complex)
    return np.empty((rings, grid.n_phi))


def _stepped_blocks(blocks, gain, steps: int, spectrum):
    """Yield each ``(rows, values)`` of ``blocks`` after the run, stepped in place.

    A block's rings are transformed into ``spectrum``, a buffer from
    ``_block_buffer`` that every block reuses, multiplied by ``gain`` and
    inverted back into the block's own values, which the caller lets go
    (``evolve_fd`` steps its copy of the start field, ``_evolve_against_exact``
    its start values, in a block buffer or a whole grid).  Rows are
    independent in ``rfft`` and ``irfft``, and writing through their
    ``out=`` changes no bit, so every value has the bits of the whole-grid
    transform.  With no gain the values are left
    as they are.  A block with a non-finite value raises ``BlowupError``
    before it is yielded.  With buffers made once per call, a warm
    ``evolve`` takes 352 minor page faults per run at any grid size; fresh
    arrays for every block's spectrum and values took about 1,220, and
    releasing each block before the next transform took 28,700 at
    1024 x 4096 (2-core x86-64 VM, numpy 2.4.6).
    """
    for rows, values in blocks:
        if gain is not None:
            spec = spectrum[:len(values)]
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
                np.fft.rfft(values, axis=1, out=spec)
                spec *= gain
                np.fft.irfft(spec, n=values.shape[1], axis=1, out=values)
        if not np.all(np.isfinite(values)):
            raise BlowupError(f"non-finite values after {steps} upwind steps")
        yield rows, values


def evolve_fd(field0: Field2D, params: OscillatorParams, t_final: float) -> Field2D:
    """Advance a sampled field to ``t_final`` by first-order upwind advection.

    Integrates W_t = omega W_phi with forward Euler in time and the upwind
    neighbour (j+1, the direction values arrive from for omega > 0) in the
    periodic angle.  Requires ``grid.dt`` with Courant number
    omega dt / delta_phi <= 1; a final partial step lands exactly on
    ``t_final``.  Rings with distinct radii are independent.

    The scheme is applied in closed form by ``_upwind_run``'s gain, one
    multiply of each ring's angular spectrum, so the cost does not depend
    on the time span.  The start values are copied once, and the copy is
    stepped in place one block of ``_ring_blocks`` at a time by
    ``_stepped_blocks``, through one spectrum buffer that every block
    reuses, so beside the start field and the result only that one block
    is held: two grids, 64 MB at 1024 x 4096.  The ``evolve`` command runs
    the same stepper on sampled blocks and compares each with the exact
    rotation as it goes, holding no grid at all (33 MB peak RSS at
    1024 x 4096, the import's 30 MB included); this function is for
    callers that want the evolved field.  Its ``meta`` is the start
    field's with ``steps``, the upwind step count, and ``courant``, the
    Courant number.
    """
    grid = field0.grid
    steps, c, gain = _upwind_run(grid, params, field0.time_tag, t_final)
    vals = field0.values.copy()
    blocks = ((rows, vals[rows]) for rows in _ring_blocks(grid))
    for _ in _stepped_blocks(blocks, gain, steps, _block_buffer(grid, True)):
        pass
    return Field2D(grid=grid, values=vals, time_tag=t_final,
                   meta={**field0.meta, "steps": steps, "courant": c})


def _finite_nodes(vals, rho, phi, first_ring=0):
    """Raise ``DataError`` naming the first node of ``vals`` whose value is not finite.

    ``vals`` holds the rings from ``first_ring`` on, at the radii ``rho`` and angles ``phi``.
    """
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), vals.shape)
        i += first_ring
        raise DataError(
            f"non-finite value at node (i={i}, j={j}), "
            f"rho={float(rho[i])!r}, phi={float(phi[j])!r}"
        )


def _sampled_blocks(W, grid: GridSpec, t, params: OscillatorParams, out=None):
    """Yield ``(rows, values)``: W at time ``t`` on each block of ``_ring_blocks``, rho-major.

    The values are read through ``_polar_grid`` as radial[:, None] * angular,
    an elementwise product, so each has the bits of the whole grid's.  This
    is the one walker of sampled grids.  A field whose angular factor is
    1-d (a field class, or a rotation of one) is read at most twice per
    sampling, whatever the number of blocks: on the first block's radii,
    then on every remaining radius, and each block takes its rows of that
    radial factor.  An (n_rho, n_phi) angular factor (a bare callable, or a
    rotation of one) is read one block at a time, so no more than a block
    of its values is held.  A non-finite value raises ``DataError`` naming
    its node.  ``out`` is the one destination: an (n_rho, n_phi) array,
    whose rows each block fills, as ``sample_field`` fills its grid, or a
    buffer from ``_block_buffer`` (made here when not given), which each
    block overwrites and the caller may work on in place.  On a grid of
    one block the two are the same rows, so ``len(out)`` tells them apart.
    """
    rho, phi = grid.rho_nodes(), grid.phi_nodes()
    if out is None:
        out = _block_buffer(grid)
    first = read = 0  # the factors in hand are those of the rings first .. read - 1
    for rows in _ring_blocks(grid):
        if rows.stop > read:  # after the first block, a 1-d angular factor serves every ring
            first = rows.start
            read = grid.n_rho if first and angular.ndim == 1 else rows.stop
            radial, angular = _polar_grid(W, params, rho[first:read], phi, t)
        part = slice(rows.start - first, rows.stop - first)
        dest = out[rows] if len(out) == grid.n_rho else out[:rows.stop - rows.start]
        values = np.multiply(radial[part, None], angular if angular.ndim == 1 else angular[part],
                             out=dest)
        _finite_nodes(values, rho, phi, rows.start)
        yield rows, values


def _evolve_against_exact(W, grid: GridSpec, params: OscillatorParams, times, out=None):
    """Evolve W from t = 0 to each of ``times`` on ``grid`` and compare it with the exact rotation.

    Yields ``(steps, err)`` for each time in turn, before the next time
    starts: the upwind step count and max |exact - fd| over the nodes.
    This is the one comparison of an upwind run with the exact rotation.
    One block of rings at a time is sampled at t = 0 into ``out``, advanced
    in place by ``_stepped_blocks``, and only then is ``propagate_exact(W)``
    sampled on the same rings, so a block that blows up raises before its
    exact values are read; the difference is taken in the exact block.
    ``out`` is the start values' destination, as ``_sampled_blocks`` takes
    it: a block buffer (made here when not given), so that no grid-sized
    array is held and three block buffers, made once per call, serve every
    block of every time (the start values, their spectrum and the exact
    values); or an (n_rho, n_phi) array, which then holds each time's
    evolved field from its yield until the next time samples over it.
    ``err`` is a maximum, which is exact, so it has the bits of the
    whole-grid comparison of
    ``evolve_fd(sample_field(W, grid, 0.0, params), params, t)``.
    """
    start = _block_buffer(grid) if out is None else out
    spectrum, exact = _block_buffer(grid, True), _block_buffer(grid)
    for t in times:
        steps, _, gain = _upwind_run(grid, params, 0.0, t)
        stepped = _stepped_blocks(_sampled_blocks(W, grid, 0.0, params, start), gain, steps,
                                  spectrum)
        target = _sampled_blocks(propagate_exact(W, params, t), grid, t, params, exact)
        err = 0.0
        for (_, values), (_, diff) in zip(stepped, target):
            diff -= values
            err = max(err, float(np.max(np.abs(diff, out=diff))))
        yield steps, err


def _check_triplet(fields):
    if len(fields) != 3:
        raise ConfigurationError(f"expected three fields, got {len(fields)}")
    fm, f0, fp = fields
    if not (fm.grid == f0.grid == fp.grid):
        raise ConfigurationError("residual stencils need identical grids")
    dt1 = f0.time_tag - fm.time_tag
    dt2 = fp.time_tag - f0.time_tag
    if dt1 <= 0.0 or dt2 <= 0.0 or abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise ConfigurationError(
            f"time tags must be uniformly spaced, got spacings {dt1!r}, {dt2!r}"
        )
    return fm, f0, fp, 0.5 * (dt1 + dt2)


def _residual_field(res, f0, params, kind):
    """The residual values ``res`` as a field on ``f0``'s grid, at its time, with no meta.

    The inputs are finite, so a non-finite residual comes from the scaling
    by omega; ``DataError`` then names omega and ``kind``, the residual's name.
    """
    if not np.all(np.isfinite(res)):
        raise DataError(f"omega = {params.omega!r} takes the {kind} to a non-finite value")
    return Field2D(grid=f0.grid, values=res, time_tag=f0.time_tag)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # refused below, not warned
def wave_residual(fields, params: OscillatorParams) -> Field2D:
    """Central-difference estimate of W_tt - omega^2 W_phiphi.

    ``fields`` holds three samples of the same grid at consecutive times
    t - dt, t, t + dt.  Vanishes under refinement at second order for any
    solution of the membrane wave equation.  Formed in the phase tau = omega t
    as omega (omega (W_tautau - W_phiphi)): omega^2 and dt^2 may not be doubles.
    Raises ``DataError`` naming omega when a residual value is not finite.
    """
    fm, f0, fp, dt = _check_triplet(fields)
    v = f0.values
    dtau = params.omega * dt
    wtt = (fp.values - 2.0 * v + fm.values) / (dtau * dtau)
    dphi = f0.grid.delta_phi
    wpp = (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / (dphi * dphi)
    res = params.omega * (params.omega * (wtt - wpp))
    return _residual_field(res, f0, params, "wave_residual")


@np.errstate(over="ignore", invalid="ignore")  # refused below, not warned
def transport_residual(fields, params: OscillatorParams) -> Field2D:
    """Central-difference estimate of W_t - omega W_phi.

    Discriminates chirality: fields of the form h(Omega t + kappa phi)
    satisfy the transport equation and their residual refines to zero,
    while the counter-propagating component leaves a resolution-independent
    smooth limit.  Raises ``DataError`` naming omega when a residual value
    is not finite.
    """
    fm, f0, fp, dt = _check_triplet(fields)
    wt = (fp.values - fm.values) / (2.0 * dt)
    dphi = f0.grid.delta_phi
    v = f0.values
    wphi = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * dphi)
    res = wt - params.omega * wphi
    return _residual_field(res, f0, params, "transport_residual")


@dataclass(frozen=True)
class PolynomialPotential:
    """Potential U(x) = sum_k coeffs[k] x^k of degree at most 12."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(_real(c, "potential coefficients") for c in self.coeffs) or (0.0,)
        if len(coeffs) - 1 > MAX_POTENTIAL_DEGREE:
            raise ConfigurationError(
                f"potential degree {len(coeffs) - 1} exceeds {MAX_POTENTIAL_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        """Degree ignoring trailing zero coefficients; 0 for the zero potential."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return 0

    def __call__(self, x):
        xs = coordinate(x, "x")
        acc = np.zeros_like(xs)
        for c in reversed(self.coeffs):
            acc = acc * xs + c
        return acc if xs.ndim else float(acc)


def poly_derivative(U: PolynomialPotential, order: int) -> PolynomialPotential:
    """Exact derivative d^order U / dx^order by coefficient shift.

    After len(U.coeffs) shifts the derivative is (0.0,), which every further
    shift keeps, so no more are taken.
    """
    coeffs = list(U.coeffs)
    for _ in range(min(_integer(order, "derivative order"), len(coeffs))):
        coeffs = [k * coeffs[k] for k in range(1, len(coeffs))] or [0.0]
    return PolynomialPotential(tuple(coeffs))


def _fd_weights(xs, m):
    """Finite-difference weights for d^m/dx^m at 0 from the nodes xs (Fornberg)."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i]
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _fd_p_derivative(W, order, x, p, t):
    """Symmetric-stencil p-derivative of W at (x, p), fourth-order accurate."""
    h = max(1e-3, 1e-3 * abs(p))
    r = (order + 3) // 2
    offsets = np.arange(-r, r + 1, dtype=float) * h
    weights = _fd_weights(offsets, order)
    vals = np.asarray(W(x, p + offsets, t), dtype=float)
    return float(np.dot(weights, vals))


def moyal_rhs(U: PolynomialPotential, W, x, p, hbar: float, t: float = 0.0) -> float:
    """Right-hand side of the quantum transport equation at the point (x, p).

    Sums (-1)^k (hbar/2)^(2k) / (2k+1)! * U^(2k+1)(x) * d^(2k+1)W/dp^(2k+1)
    over the finitely many odd orders not exceeding deg U.  Quadratic
    potentials contribute no terms, so the result is exactly zero without
    touching ``W``.  If ``W`` exposes ``p_derivative(order, x, p)`` the
    exact derivatives are used; otherwise central differences with step
    h = max(1e-3, 1e-3 |p|).  An ``x``, ``p`` or ``t`` that is not one
    finite real, an ``hbar`` that is not finite and positive, or a term
    that takes the sum past the doubles, raises ``DataError``; the last
    names the term's factors hbar, U^(d)(x) and d^dW/dp^d, since any of
    them can be the one that overflows.
    """
    x, p, t = _real(x, "x"), _real(p, "p"), _real(t, "t")  # one point, one time
    hbar = _real(hbar, "hbar", positive=True)
    deg = U.degree
    exact = getattr(W, "p_derivative", None)
    total = 0.0
    k = 1
    while 2 * k + 1 <= deg:
        d = 2 * k + 1
        with np.errstate(over="ignore"):  # an overflow is refused below, by the sum
            u_d = poly_derivative(U, d)(x)
        if u_d != 0.0:
            if exact is not None:
                w_d = exact(d, x, p)
            else:
                w_d = _fd_p_derivative(W, d, x, p, t)
            scale = math.prod([hbar / 2.0] * (2 * k))  # no float power: it raises on overflow
            term = (-1.0) ** k * scale / math.factorial(d) * u_d * w_d
            total += term
            if not math.isfinite(total):
                raise DataError(f"the order-{d} Moyal term takes the sum to {total!r}: "
                                f"hbar = {hbar!r}, U^({d})(x) = {u_d!r}, "
                                f"d^{d}W/dp^{d} = {w_d!r}")
        k += 1
    return total
