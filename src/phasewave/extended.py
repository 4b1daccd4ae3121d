"""Time-dependent extensions of the oscillator Wigner functions.

The stationary Gaussian-Laguerre kernel is modulated by a normalized
angular wave factor

    C + f(Omega t + kappa phi) + g(Omega t - kappa phi),   Omega = omega kappa,

with f, g periodic of period 2 pi kappa.  A standing wave built from two
counter-propagating sine waves is the worked instance; with wave number
kappa = 2 ell its factor is odd in both xbar and p, which is exactly the
condition under which the marginals of the modulated function reproduce
the position and momentum densities.

:class:`ExtendedWigner` is the one modulated field.  Its wave is anything
that supplies ``norm``, ``origin_value`` (the angular factor on the node
line at the origin), ``omega_wave(omega)`` and ``bracket(phi, t, omega)``,
the angular factor as a new array, which the field multiplies into: a
:class:`WaveProfile`, or a :class:`StandingWaveSpec`, whose bracket is
already divided by C, so that its norm and origin value are 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (AccuracyError, DataError, DegenerateProfileError, _integer, _real,
                     _require_finite)
from .oscillator import NATURAL_UNITS, TWO_PI, OscillatorParams, _phase, polar_from_xy
from .special import check_order
from .wigner import radial_kernel

_PERIOD_TOL = 1e-10
_PERIOD_SAMPLES = 128
_PROFILE_SEED = 20200828

#: Periodic trapezoid panels of the profile means in :func:`normalization`, and
#: their relative tolerance: on their change with the wave phase, relative to
#: the largest sample, and on their rounding, relative to C + <f> + <g>.
_MEAN_PANELS = 4096
_MEAN_TOL = 1e-9
#: Seeded phase points, tolerance and wave-period fractions of :func:`check_parity`.
_PARITY_SAMPLES = 200
_PARITY_TOL = 1e-10
_PARITY_PHASES = (0.0, 0.137, 0.29, 0.5, 0.81)


#: The seeded unit draws behind the periodicity angles, drawn once.
_rng = random.Random(_PROFILE_SEED)
_PERIOD_DRAWS = np.array([_rng.random() for _ in range(_PERIOD_SAMPLES)])
_PERIOD_DRAWS.setflags(write=False)
del _rng


def _sample_periodic(h, name, kappa):
    """Raise ``DataError`` unless h(theta + 2 pi kappa) = h(theta) on the seeded angles.

    The deviation is held to ``_PERIOD_TOL`` times the larger of 1 and the
    largest |h| sampled, so that a large amplitude's rounding is not taken
    for a fault.
    """
    period = TWO_PI * kappa
    # random.uniform(-period, period) is -period + (period - -period) * random()
    theta = -period + (2.0 * period) * _PERIOD_DRAWS
    a = np.broadcast_to(np.asarray(h(theta), dtype=float), theta.shape)
    b = np.broadcast_to(np.asarray(h(theta + period), dtype=float), theta.shape)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError(f"profile function {name} returned non-finite values")
    worst, limit = float(np.max(np.abs(a - b))), _PERIOD_TOL * max(1.0, float(np.max(np.abs(a))))
    if worst >= limit:
        raise DataError(f"profile function {name} is not 2*pi*kappa periodic (max deviation "
                        f"{worst:.3e} over {_PERIOD_SAMPLES} sampled angles, not below "
                        f"{_PERIOD_TOL:g} * max(1, max|{name}|) = {limit:.3e})")


@dataclass(frozen=True)
class WaveProfile:
    """Angular modulation data (f, g, C, kappa).

    ``f`` and ``g`` must be numpy-evaluable callables of one argument,
    periodic with period 2 pi kappa; periodicity is verified at construction
    on 128 angles drawn by the standard library's seeded ``random.Random``
    rather than assumed, to ``1e-10`` times the larger of 1 and the
    function's largest sampled magnitude; a profile that fails raises
    ``DataError``.  ``C`` is kept as a float and ``kappa`` as an int.
    ``norm`` is the profile's :func:`normalization`, computed on first use
    and kept; ``origin_value`` is C.
    """

    f: Callable
    g: Callable
    C: float
    kappa: int

    def __post_init__(self):
        object.__setattr__(self, "kappa", _integer(self.kappa, "kappa", 1))
        object.__setattr__(self, "C", _real(self.C, "C"))
        _sample_periodic(self.f, "f", self.kappa)
        _sample_periodic(self.g, "g", self.kappa)

    @cached_property
    def norm(self) -> float:
        return normalization(self)

    @property
    def origin_value(self) -> float:
        return self.C

    def omega_wave(self, omega: float) -> float:
        """Wave frequency Omega = omega * kappa; ``omega`` is checked as a positive real."""
        return _real(omega, "omega", positive=True) * self.kappa

    def bracket(self, phi, t, omega):
        """Angular factor C + f(Omega t + kappa phi) + g(Omega t - kappa phi); ``t`` may be
        an array that broadcasts with ``phi``."""
        th = _phase(self.omega_wave(omega), t)
        kphi = self.kappa * _require_finite(phi, "phi")
        return self.C + self.f(th + kphi) + self.g(th - kphi)


def stationary_profile(C: float = 1.0) -> WaveProfile:
    """Profile with f = g = 0: the modulated family reduces to the kernel."""
    return WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=C, kappa=1)


def running_wave_profile(A: float, C: float, kappa: int) -> WaveProfile:
    """Single-chirality cosine profile A cos(Omega t - kappa phi).

    Its angular factor is not odd in xbar or p, so the marginal identities
    fail for it; it exists as the negative test case.
    """
    A = _real(A, "A")
    return WaveProfile(f=lambda th: 0.0, g=lambda th: A * np.cos(th), C=C, kappa=kappa)


@dataclass(frozen=True)
class StandingWaveSpec:
    """Standing-wave instance: amplitude A, offset C > 0, index ell >= 1.

    ``ell`` is kept as an int and A and C as floats.  Derived quantities:
    wave number kappa = 2 ell, frequency Omega = 2 omega ell, period
    T = 2 pi / Omega.  It is a wave of :class:`ExtendedWigner`: its
    bracket is divided by C, so N = 1/C is taken in and its ``norm`` and
    ``origin_value`` are 1.
    """

    ell: int
    A: float
    C: float

    norm = 1.0
    origin_value = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ell", _integer(self.ell, "ell", 1))
        object.__setattr__(self, "A", _real(self.A, "A"))
        object.__setattr__(self, "C", _real(self.C, "C", positive=True))
        if not math.isfinite(2.0 * self.A / self.C):
            raise DataError(f"2A/C must be finite, got A = {self.A!r}, C = {self.C!r}")

    @property
    def kappa(self) -> int:
        return 2 * self.ell

    omega_wave = WaveProfile.omega_wave  # omega * 2 ell rounds as 2 omega * ell: 2 omega is exact

    def bracket(self, phi, t, omega):
        """Angular factor 1 + (2A/C) cos(Omega t) sin(2 ell phi).

        ``t`` may be an array that broadcasts with ``phi``: sin(2 ell phi) is
        formed once, and each time's cosine is ``math.cos`` of its phase, so
        every slice has the bits of a call with that time alone.
        """
        phase = _phase(self.omega_wave(omega), t)
        cos = np.array([math.cos(v) for v in np.ravel(phase)]).reshape(np.shape(phase))
        angular = 2.0 * self.A * cos * np.sin(2.0 * self.ell * _require_finite(phi, "phi"))
        angular /= self.C
        angular += 1.0
        return angular

    def period(self, omega: float) -> float:
        return TWO_PI / self.omega_wave(omega)

    def to_profile(self) -> WaveProfile:
        """Counter-propagating pair A sin(.) - A sin(.) realizing the standing wave."""
        return WaveProfile(
            f=lambda th: self.A * np.sin(th),
            g=lambda th: -self.A * np.sin(th),
            C=self.C,
            kappa=self.kappa,
        )


def normalization(profile: WaveProfile) -> float:
    """The normalization factor N = 1/(C + <f> + <g>) of a profile.

    The means are angular averages of f(Omega t + kappa phi) and
    g(Omega t - kappa phi) over phi in [0, 2 pi) by periodic trapezoid;
    periodicity makes them independent of the phase Omega t, which is
    verified by recomputing at a second phase.  They may differ by rounding,
    which grows with the size of f and g, so a change above ``_MEAN_TOL``
    times the larger of 1 and the largest |f| or |g| sampled raises
    ``DataError``, and so does a non-finite sample.  A mean's rounding is
    estimated as that change plus one ulp of its largest sample.
    ``DegenerateProfileError`` if C + <f> + <g> is zero, no larger than
    the two estimates, or so small that its reciprocal is not finite;
    ``AccuracyError`` if the two estimates exceed ``_MEAN_TOL`` times
    |C + <f> + <g>|.  There is no absolute floor: C = 1e-13 or 1e-300
    with f = g = 0 gives N = 1/C.
    """
    phi = TWO_PI * np.arange(_MEAN_PANELS) / _MEAN_PANELS

    def angular_mean(h, sign, name):
        def at(phase):
            vals = np.asarray(h(phase + sign * profile.kappa * phi), dtype=float)
            vals = np.broadcast_to(vals, phi.shape)
            if not np.all(np.isfinite(vals)):
                raise DataError(f"profile function {name} returned non-finite values")
            return float(np.mean(vals)), float(np.max(np.abs(vals)))

        (m0, size0), (m1, size1) = at(0.0), at(2.4013)
        size, change = max(size0, size1), abs(m0 - m1)
        limit = _MEAN_TOL * max(1.0, size)
        if change > limit:
            raise DataError(
                f"angular mean of {name} depends on the wave phase ({m0!r} vs {m1!r}, "
                f"not within {_MEAN_TOL:g} * max(1, max|{name}|) = {limit:.3e}); "
                f"the profile is not 2*pi*kappa periodic"
            )
        return m0, change + np.finfo(float).eps * size

    mean_f, err_f = angular_mean(profile.f, +1.0, "f")
    mean_g, err_g = angular_mean(profile.g, -1.0, "g")
    den = profile.C + mean_f + mean_g
    if abs(den) <= err_f + err_g:
        raise DegenerateProfileError(
            f"C + <f> + <g> = {den!r} is zero to within the means' estimated rounding of "
            f"{err_f + err_g:.3e}; the profile cannot be normalized"
        )
    if not math.isfinite(1.0 / den):
        raise DegenerateProfileError(
            f"N = 1/(C + <f> + <g>) = 1/{den!r} is past the doubles; "
            f"the profile cannot be normalized"
        )
    if err_f + err_g > _MEAN_TOL * abs(den):
        raise AccuracyError(
            f"the angular means of f and g carry an estimated rounding of "
            f"{err_f + err_g:.3e}, above {_MEAN_TOL:g} * |C + <f> + <g>| = "
            f"{_MEAN_TOL * abs(den):.3e}; N = 1/(C + <f> + <g>) is not known to that accuracy"
        )
    return 1.0 / den


@dataclass(frozen=True)
class ExtendedWigner:
    """Callable field W(x, p, t) for a kernel modulated by a wave.

    The wave is a :class:`WaveProfile` or a :class:`StandingWaveSpec`.
    ``t`` may be an array that broadcasts with x and p; the polar map and
    the radial factor are then formed once for all its times.
    """

    params: OscillatorParams
    n: int
    profile: WaveProfile | StandingWaveSpec

    def __post_init__(self):
        object.__setattr__(self, "n", check_order(self.n))

    def __call__(self, x, p, t=0.0):
        rho, phi = polar_from_xy(self.params, x, p)
        radial, angular = self.polar_factors(rho, phi, t)
        shape = np.broadcast(radial, angular).shape
        if angular.shape != shape:  # a bracket constant in phi has fewer axes than W
            angular = np.array(np.broadcast_to(angular, shape))
        # node-line convention: the angular factor at the origin is the wave's origin value
        np.copyto(angular, self.profile.origin_value, where=rho == 0.0)
        angular *= radial  # in place: the bracket is a new array, now of W's shape
        return angular[()]

    def polar_factors(self, rho, phi, t=0.0):
        """Radial factor N kernel_n(rho) and the wave's angular factor (its bracket) at ``phi``.

        W(rho_i, phi_j, t) = radial[i] * angular[j] away from the origin.
        """
        t = _require_finite(t, "t")
        radial = self.profile.norm * radial_kernel(self.params, self.n, rho)
        angular = np.asarray(self.profile.bracket(phi, t, self.params.omega), dtype=float)
        return radial, angular


def extended_field(params: OscillatorParams, n, profile: WaveProfile) -> ExtendedWigner:
    """Field factory; raises ``DegenerateProfileError`` for a profile that cannot be normalized."""
    W = ExtendedWigner(params, n, profile)
    profile.norm  # computed here, once per profile, so a degenerate one fails now
    return W


def extended_eval(params: OscillatorParams, n, profile: WaveProfile, x, p, t: float) -> float:
    """Modulated Wigner value N * kernel_n(rho) * [C + f(.) + g(.)] at the point (x, p).

    The angular factor is undefined at rho = 0; the value there is fixed by
    the node-line convention to N * C * kernel_n(0).
    """
    return float(extended_field(params, n, profile)(x, p, t))


class StandingWaveWigner(ExtendedWigner):
    """The :class:`ExtendedWigner` of a :class:`StandingWaveSpec`."""

    # its own namespace holds __call__, so that a tracer patching each
    # field class's own __call__ counts a standing wave's calls once
    __call__ = ExtendedWigner.__call__


def standing_wave_field(params: OscillatorParams, n, spec: StandingWaveSpec) -> StandingWaveWigner:
    return StandingWaveWigner(params, n, spec)


def standing_wave_eval(params: OscillatorParams, n, spec: StandingWaveSpec,
                       x, p, t: float) -> float:
    """Standing-wave Wigner value kernel_n(rho) [1 + (2A/C) cos(2 omega ell t) sin(2 ell phi)].

    The origin needs no special casing: its conventional angle 0 lies on a
    node line, where the factor is already 1.
    """
    return float(standing_wave_field(params, n, spec)(x, p, t))


def node_angles(spec: StandingWaveSpec) -> np.ndarray:
    """Angles pi k / (2 ell), k = 0 .. 4 ell - 1, where the wave factor always vanishes."""
    k = np.arange(4 * spec.ell)
    return math.pi * k / (2.0 * spec.ell)


def antinode_angles(spec: StandingWaveSpec) -> np.ndarray:
    """Angles pi (2k+1) / (4 ell), k = 0 .. 4 ell - 1, where the factor is extremal."""
    k = np.arange(4 * spec.ell)
    return math.pi * (2.0 * k + 1.0) / (4.0 * spec.ell)


@dataclass(frozen=True)
class ParityReport:
    """Outcome of the oddness check of the angular factor in xbar and p."""

    passed: bool
    max_violation_xbar: float
    max_violation_p: float
    samples: int
    tol: float
    seed: int
    times: tuple


def check_parity(params: OscillatorParams, wave) -> ParityReport:
    """Test whether Phi = f(Omega t + kappa phi) + g(Omega t - kappa phi) is odd.

    Draws 200 phase points (xi, eta) in [-3, 3]^2 widths from the standard
    library's ``random.Random`` seeded with ``seed``, so that their angles
    do not depend on the units, reflects them in xbar and in p, and
    measures |Phi(reflected) + Phi(point)| at five fractions of the wave
    period, relative to the larger of 1 and the largest |Phi| sampled,
    against 1e-10.  Failure is reported, not
    raised; the report records the samples, tolerance, seed and times.
    """
    profile = wave.to_profile() if isinstance(wave, StandingWaveSpec) else wave
    rng = random.Random(_PROFILE_SEED)
    xi = np.array([rng.uniform(-3.0, 3.0) for _ in range(_PARITY_SAMPLES)])
    eta = np.array([rng.uniform(-3.0, 3.0) for _ in range(_PARITY_SAMPLES)])
    xi = np.where(np.abs(xi) < 1e-3, 0.5, xi)
    eta = np.where(np.abs(eta) < 1e-3, -0.5, eta)

    omega_w = profile.omega_wave(params.omega)
    times = tuple(TWO_PI / omega_w * frac for frac in _PARITY_PHASES)

    def wave_part(phi, t):
        th = _phase(omega_w, t)
        return np.asarray(profile.f(th + profile.kappa * phi), dtype=float) \
            + np.asarray(profile.g(th - profile.kappa * phi), dtype=float)

    # the angles of the points, then of their reflections; in natural units x and p are widths
    phis = [polar_from_xy(NATURAL_UNITS, a, b)[1] for a, b in ((xi, eta), (-xi, eta), (xi, -eta))]
    vals = [[wave_part(phi, t) for phi in phis] for t in times]
    scale = max(1.0, *(float(np.max(np.abs(v))) for at_t in vals for v in at_t))
    worst_x = max(float(np.max(np.abs(refl + base))) for base, refl, _ in vals) / scale
    worst_p = max(float(np.max(np.abs(refl + base))) for base, _, refl in vals) / scale
    return ParityReport(
        passed=(worst_x <= _PARITY_TOL and worst_p <= _PARITY_TOL),
        max_violation_xbar=worst_x,
        max_violation_p=worst_p,
        samples=_PARITY_SAMPLES,
        tol=_PARITY_TOL,
        seed=_PROFILE_SEED,
        times=times,
    )
