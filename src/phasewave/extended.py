"""Time-dependent extensions of the oscillator Wigner functions.

The stationary Gaussian-Laguerre kernel is modulated by a normalized
angular wave factor

    C + f(Omega t + kappa phi) + g(Omega t - kappa phi),   Omega = omega kappa,

with f, g periodic of period 2 pi kappa.  A standing wave built from two
counter-propagating sine waves is the worked instance; with wave number
kappa = 2 ell its factor is odd in both xbar and p, which is exactly the
condition under which the marginals of the modulated function reproduce
the position and momentum densities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateProfileError
from .oscillator import (NATURAL_UNITS, TWO_PI, OscillatorParams, PhasePoint, _phase,
                         _positive_real, _require_finite, polar_from_xy)
from .special import check_order
from .wigner import radial_kernel

_PERIOD_TOL = 1e-10
_PERIOD_SAMPLES = 128
_PROFILE_SEED = 20200828

#: Periodic trapezoid panels of the profile means in :func:`normalization`.
_MEAN_PANELS = 4096
#: Seeded phase points, tolerance and wave-period fractions of :func:`check_parity`.
_PARITY_SAMPLES = 200
_PARITY_TOL = 1e-10
_PARITY_PHASES = (0.0, 0.137, 0.29, 0.5, 0.81)


def _sample_periodic(h, name, kappa):
    rng = random.Random(_PROFILE_SEED)
    period = TWO_PI * kappa
    theta = np.array([rng.uniform(-period, period) for _ in range(_PERIOD_SAMPLES)])
    a = np.broadcast_to(np.asarray(h(theta), dtype=float), theta.shape)
    b = np.broadcast_to(np.asarray(h(theta + period), dtype=float), theta.shape)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError(f"profile function {name} returned non-finite values")
    worst = float(np.max(np.abs(a - b)))
    if worst >= _PERIOD_TOL:
        raise ValueError(
            f"profile function {name} is not 2*pi*kappa periodic "
            f"(max deviation {worst:.3e} over {_PERIOD_SAMPLES} sampled angles)"
        )


@dataclass(frozen=True)
class WaveProfile:
    """Angular modulation data (f, g, C, kappa).

    ``f`` and ``g`` must be numpy-evaluable callables of one argument,
    periodic with period 2 pi kappa; periodicity is verified at construction
    on 128 angles drawn by the standard library's seeded ``random.Random``
    rather than assumed.  ``norm`` is the profile's :func:`normalization`,
    computed on first use and kept.
    """

    f: Callable
    g: Callable
    C: float
    kappa: int

    def __post_init__(self):
        if isinstance(self.kappa, bool) or not isinstance(self.kappa, (int, np.integer)):
            raise ValueError(f"kappa must be a positive integer, got {self.kappa!r}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be a positive integer, got {self.kappa}")
        if isinstance(self.C, bool) or not math.isfinite(self.C):
            raise ValueError("C must be finite")
        _sample_periodic(self.f, "f", self.kappa)
        _sample_periodic(self.g, "g", self.kappa)

    @cached_property
    def norm(self) -> float:
        return normalization(self)

    def omega_wave(self, omega: float) -> float:
        """Wave frequency Omega = omega * kappa."""
        return omega * self.kappa

    def bracket(self, phi, t, omega):
        """Angular factor C + f(Omega t + kappa phi) + g(Omega t - kappa phi); ``t`` may be
        an array that broadcasts with ``phi``."""
        th = _phase(self.omega_wave(omega), t)
        return self.C + self.f(th + self.kappa * np.asarray(phi, dtype=float)) \
            + self.g(th - self.kappa * np.asarray(phi, dtype=float))


def stationary_profile(C: float = 1.0) -> WaveProfile:
    """Profile with f = g = 0: the modulated family reduces to the kernel."""
    return WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=C, kappa=1)


def running_wave_profile(A: float, C: float, kappa: int) -> WaveProfile:
    """Single-chirality cosine profile A cos(Omega t - kappa phi).

    Its angular factor is not odd in xbar or p, so the marginal identities
    fail for it; it exists as the negative test case.
    """
    return WaveProfile(f=lambda th: 0.0, g=lambda th: A * np.cos(th), C=C, kappa=kappa)


@dataclass(frozen=True)
class StandingWaveSpec:
    """Standing-wave instance: amplitude A, offset C > 0, index ell >= 1.

    Derived quantities: wave number kappa = 2 ell, frequency
    Omega = 2 omega ell, period T = 2 pi / Omega.
    """

    ell: int
    A: float
    C: float

    def __post_init__(self):
        if isinstance(self.ell, bool) or not isinstance(self.ell, (int, np.integer)):
            raise ValueError(f"ell must be a positive integer, got {self.ell!r}")
        if self.ell < 1:
            raise ValueError(f"ell must be a positive integer, got {self.ell}")
        if isinstance(self.A, bool) or not math.isfinite(self.A):
            raise ValueError("A must be finite")
        if not _positive_real(self.C):
            raise ValueError(f"C must be finite and positive, got {self.C}")
        if not math.isfinite(2.0 * self.A / self.C):
            raise ValueError(f"2A/C must be finite, got A = {self.A!r}, C = {self.C!r}")

    @property
    def kappa(self) -> int:
        return 2 * self.ell

    def omega_wave(self, omega: float) -> float:
        return 2.0 * omega * self.ell

    def period(self, omega: float) -> float:
        return TWO_PI / self.omega_wave(omega)

    def to_profile(self) -> WaveProfile:
        """Counter-propagating pair A sin(.) - A sin(.) realizing the standing wave."""
        amp = float(self.A)
        return WaveProfile(
            f=lambda th: amp * np.sin(th),
            g=lambda th: -amp * np.sin(th),
            C=float(self.C),
            kappa=self.kappa,
        )


def standing_wave_factor(spec: StandingWaveSpec, phi, t, omega):
    """Standing-wave modulation 2 A cos(2 omega ell t) sin(2 ell phi).

    ``t`` may be an array that broadcasts with ``phi``: sin(2 ell phi) is
    formed once, and each time's cosine is ``math.cos`` of its phase, so
    every slice has the bits of a call with that time alone.
    """
    phase = _phase(spec.omega_wave(omega), t)
    cos = np.array([math.cos(v) for v in np.ravel(phase)]).reshape(np.shape(phase))
    return 2.0 * spec.A * cos * np.sin(2.0 * spec.ell * np.asarray(phi, dtype=float))


def normalization(profile: WaveProfile) -> float:
    """The normalization factor N = 1/(C + <f> + <g>) of a profile.

    The means are angular averages of f(Omega t + kappa phi) and
    g(Omega t - kappa phi) over phi in [0, 2 pi) by periodic trapezoid;
    periodicity makes them independent of the phase Omega t, which is
    verified by recomputing at a second phase.
    """
    phi = TWO_PI * np.arange(_MEAN_PANELS) / _MEAN_PANELS

    def angular_mean(h, sign, name):
        def at(phase):
            vals = np.asarray(h(phase + sign * profile.kappa * phi), dtype=float)
            return float(np.mean(np.broadcast_to(vals, phi.shape)))

        m0 = at(0.0)
        m1 = at(2.4013)
        if abs(m0 - m1) > 1e-9 * max(1.0, abs(m0)):
            raise ValueError(
                f"angular mean of {name} depends on the wave phase "
                f"({m0!r} vs {m1!r}); the profile is not 2*pi*kappa periodic"
            )
        return m0

    den = profile.C + angular_mean(profile.f, +1.0, "f") + angular_mean(profile.g, -1.0, "g")
    if abs(den) < 1e-12:
        raise DegenerateProfileError(
            f"C + <f> + <g> = {den!r} is numerically zero; the profile cannot be normalized"
        )
    return 1.0 / den


@dataclass(frozen=True)
class ExtendedWigner:
    """Callable field W(x, p, t) for a kernel modulated by a wave profile.

    ``t`` may be an array that broadcasts with x and p; the polar map and
    the radial factor are then formed once for all its times.
    """

    params: OscillatorParams
    n: int
    profile: WaveProfile

    def __call__(self, x, p, t=0.0):
        rho, phi = polar_from_xy(self.params, x, p)
        radial, angular = self.polar_factors(rho, phi, t)
        # node-line convention: the angular factor is C at the origin
        return radial * np.where(np.asarray(rho) == 0.0, self.profile.C, angular)

    def polar_factors(self, rho, phi, t=0.0):
        """Radial factor N kernel_n(rho) and angular factor C + f(.) + g(.) at ``phi``.

        W(rho_i, phi_j, t) = radial[i] * angular[j] away from the origin.
        """
        t = _require_finite(t, "t")
        radial = self.profile.norm * radial_kernel(self.params, self.n, rho)
        angular = np.asarray(self.profile.bracket(phi, t, self.params.omega), dtype=float)
        return radial, angular


def extended_field(params: OscillatorParams, n, profile: WaveProfile) -> ExtendedWigner:
    """Field factory; raises ``DegenerateProfileError`` for a profile that cannot be normalized."""
    n = check_order(n)
    profile.norm  # computed here, once per profile, so a degenerate one fails now
    return ExtendedWigner(params, n, profile)


def extended_eval(params: OscillatorParams, n, profile: WaveProfile, pt: PhasePoint,
                  t: float) -> float:
    """Modulated Wigner value N * kernel_n(rho) * [C + f(.) + g(.)] at a point.

    The angular factor is undefined at rho = 0; the value there is fixed by
    the node-line convention to N * C * kernel_n(0).
    """
    return float(extended_field(params, n, profile)(pt.x, pt.p, t))


@dataclass(frozen=True)
class StandingWaveWigner:
    """Callable field for the standing-wave instance; N = 1/C analytically.

    ``t`` may be an array that broadcasts with x and p; the polar map, the
    radial factor and sin(2 ell phi) are then formed once for all its times.
    """

    params: OscillatorParams
    n: int
    spec: StandingWaveSpec

    def __call__(self, x, p, t=0.0):
        radial, angular = self.polar_factors(*polar_from_xy(self.params, x, p), t)
        angular *= radial  # angular has the shape of the result; radial may lack t's axes
        return angular

    def polar_factors(self, rho, phi, t=0.0):
        """Radial factor kernel_n(rho) and angular factor 1 + (2A/C) cos(Omega t) sin(2 ell phi).

        An array ``t`` broadcast with ``phi`` gives the angular factor its shape.
        """
        t = _require_finite(t, "t")
        angular = standing_wave_factor(self.spec, phi, t, self.params.omega)
        angular /= self.spec.C
        angular += 1.0
        return radial_kernel(self.params, self.n, rho), angular


def standing_wave_field(params: OscillatorParams, n, spec: StandingWaveSpec) -> StandingWaveWigner:
    return StandingWaveWigner(params, check_order(n), spec)


def standing_wave_eval(params: OscillatorParams, n, spec: StandingWaveSpec,
                       pt: PhasePoint, t: float) -> float:
    """Standing-wave Wigner value kernel_n(rho) [1 + (2A/C) cos(2 omega ell t) sin(2 ell phi)].

    The origin needs no special casing: its conventional angle 0 lies on a
    node line, where the factor is already 1.
    """
    return float(standing_wave_field(params, n, spec)(pt.x, pt.p, t))


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
    period against 1e-10.  Failure is reported, not
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

    def angle(xi, eta):  # in natural units x and p are the widths themselves
        return polar_from_xy(NATURAL_UNITS, xi, eta)[1]

    def wave_part(phi, t):
        th = _phase(omega_w, t)
        return np.asarray(profile.f(th + profile.kappa * phi), dtype=float) \
            + np.asarray(profile.g(th - profile.kappa * phi), dtype=float)

    phi0 = angle(xi, eta)
    phi_x = angle(-xi, eta)
    phi_p = angle(xi, -eta)
    worst_x = 0.0
    worst_p = 0.0
    for t in times:
        base_vals = wave_part(phi0, t)
        worst_x = max(worst_x, float(np.max(np.abs(wave_part(phi_x, t) + base_vals))))
        worst_p = max(worst_p, float(np.max(np.abs(wave_part(phi_p, t) + base_vals))))
    return ParityReport(
        passed=(worst_x <= _PARITY_TOL and worst_p <= _PARITY_TOL),
        max_violation_xbar=worst_x,
        max_violation_p=worst_p,
        samples=_PARITY_SAMPLES,
        tol=_PARITY_TOL,
        seed=_PROFILE_SEED,
        times=times,
    )
