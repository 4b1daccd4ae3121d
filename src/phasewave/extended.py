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
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DegenerateProfileError
from .oscillator import TWO_PI, OscillatorParams, PhasePoint, polar_from_xy
from .quadrature import DEFAULT_QUAD, QuadratureSpec
from .special import check_order
from .wigner import radial_kernel

_PERIOD_TOL = 1e-10
_PERIOD_SAMPLES = 128
_PROFILE_SEED = 20200828


def _sample_periodic(h, name, kappa):
    rng = np.random.default_rng(_PROFILE_SEED)
    theta = rng.uniform(-TWO_PI * kappa, TWO_PI * kappa, _PERIOD_SAMPLES)
    period = TWO_PI * kappa
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
    periodic with period 2 pi kappa; periodicity is verified by seeded
    random sampling at construction rather than assumed.
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
        if not math.isfinite(self.C):
            raise ValueError("C must be finite")
        _sample_periodic(self.f, "f", self.kappa)
        _sample_periodic(self.g, "g", self.kappa)

    def omega_wave(self, omega: float) -> float:
        """Wave frequency Omega = omega * kappa."""
        return omega * self.kappa

    def bracket(self, phi, t, omega):
        """Angular factor C + f(Omega t + kappa phi) + g(Omega t - kappa phi)."""
        th = self.omega_wave(omega) * t
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
        if not math.isfinite(self.A):
            raise ValueError("A must be finite")
        if not (math.isfinite(self.C) and self.C > 0.0):
            raise ValueError(f"C must be finite and positive, got {self.C}")

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
    """Standing-wave modulation 2 A cos(2 omega ell t) sin(2 ell phi)."""
    return 2.0 * spec.A * math.cos(spec.omega_wave(omega) * t) * np.sin(2.0 * spec.ell * np.asarray(phi, dtype=float))


@dataclass(frozen=True)
class Normalization:
    """Normalization factor N = 1/(C + <f> + <g>) with the profile means."""

    N: float
    mean_f: float
    mean_g: float


def normalization(profile: WaveProfile, quad: QuadratureSpec | None = None) -> Normalization:
    """Compute the profile means and N = 1/(C + <f> + <g>).

    The means are angular averages of f(Omega t + kappa phi) and
    g(Omega t - kappa phi) over phi in [0, 2 pi) by periodic trapezoid;
    periodicity makes them independent of the phase Omega t, which is
    verified by recomputing at a second phase.
    """
    panels = max(4096, quad.n_phi if quad is not None else 0)
    phi = TWO_PI * np.arange(panels) / panels

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

    mean_f = angular_mean(profile.f, +1.0, "f")
    mean_g = angular_mean(profile.g, -1.0, "g")
    den = profile.C + mean_f + mean_g
    if abs(den) < 1e-12:
        raise DegenerateProfileError(
            f"C + <f> + <g> = {den!r} is numerically zero; the profile cannot be normalized"
        )
    return Normalization(N=1.0 / den, mean_f=mean_f, mean_g=mean_g)


def _bracket_masked(profile, rho, phi, t, omega):
    """Angular factor with the node-line convention C at the origin."""
    vals = np.asarray(profile.bracket(phi, t, omega), dtype=float)
    return np.where(np.asarray(rho) == 0.0, profile.C, vals)


@dataclass(frozen=True)
class ExtendedWigner:
    """Callable field W(x, p, t) for a kernel modulated by a wave profile."""

    params: OscillatorParams
    n: int
    profile: WaveProfile
    norm: Normalization

    def __call__(self, x, p, t=0.0):
        rho, phi = polar_from_xy(self.params, x, p)
        kern = radial_kernel(self.params, self.n, rho)
        return self.norm.N * kern * _bracket_masked(self.profile, rho, phi, t, self.params.omega)


def extended_field(params: OscillatorParams, n, profile: WaveProfile,
                   norm: Normalization | None = None,
                   quad: QuadratureSpec | None = None) -> ExtendedWigner:
    """Field factory; computes the normalization once unless supplied."""
    n = check_order(n)
    if norm is None:
        norm = normalization(profile, quad or DEFAULT_QUAD)
    return ExtendedWigner(params, n, profile, norm)


def extended_eval(params: OscillatorParams, n, profile: WaveProfile, pt: PhasePoint,
                  t: float, norm: Normalization | None = None,
                  quad: QuadratureSpec | None = None) -> float:
    """Modulated Wigner value N * kernel_n(rho) * [C + f(.) + g(.)] at a point.

    The angular factor is undefined at rho = 0; the value there is fixed by
    the node-line convention to N * C * kernel_n(0).
    """
    return float(extended_field(params, n, profile, norm, quad)(pt.x, pt.p, t))


@dataclass(frozen=True)
class StandingWaveWigner:
    """Callable field for the standing-wave instance; N = 1/C analytically."""

    params: OscillatorParams
    n: int
    spec: StandingWaveSpec

    def __call__(self, x, p, t=0.0):
        rho, phi = polar_from_xy(self.params, x, p)
        kern = radial_kernel(self.params, self.n, rho)
        factor = 1.0 + standing_wave_factor(self.spec, phi, t, self.params.omega) / self.spec.C
        return kern * factor


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


def check_parity(params: OscillatorParams, wave, samples: int = 200,
                 tol: float = 1e-10, seed: int = _PROFILE_SEED,
                 times=None) -> ParityReport:
    """Test whether Phi = f(Omega t + kappa phi) + g(Omega t - kappa phi) is odd.

    Draws seeded random phase points, reflects them in xbar and in p, and
    measures |Phi(reflected) + Phi(point)| at several wave phases.  Failure
    is reported, not raised.
    """
    profile = wave.to_profile() if isinstance(wave, StandingWaveSpec) else wave
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    xb = rng.uniform(-3.0, 3.0, samples)
    p = rng.uniform(-3.0, 3.0, samples)
    xb = np.where(np.abs(xb) < 1e-3, 0.5, xb)
    p = np.where(np.abs(p) < 1e-3, -0.5, p)

    omega_w = profile.omega_wave(params.omega)
    if times is None:
        base = TWO_PI / omega_w
        times = tuple(base * frac for frac in (0.0, 0.137, 0.29, 0.5, 0.81))
    else:
        times = tuple(float(t) for t in times)

    def angle(xbar, mom):  # the samples are xbar, so no shift applies
        return polar_from_xy(replace(params, alpha=0.0), xbar, mom)[1]

    def wave_part(phi, t):
        th = omega_w * t
        return np.asarray(profile.f(th + profile.kappa * phi), dtype=float) \
            + np.asarray(profile.g(th - profile.kappa * phi), dtype=float)

    phi0 = angle(xb, p)
    phi_x = angle(-xb, p)
    phi_p = angle(xb, -p)
    worst_x = 0.0
    worst_p = 0.0
    for t in times:
        base_vals = wave_part(phi0, t)
        worst_x = max(worst_x, float(np.max(np.abs(wave_part(phi_x, t) + base_vals))))
        worst_p = max(worst_p, float(np.max(np.abs(wave_part(phi_p, t) + base_vals))))
    return ParityReport(
        passed=(worst_x <= tol and worst_p <= tol),
        max_violation_xbar=worst_x,
        max_violation_p=worst_p,
        samples=samples,
        tol=tol,
        seed=seed,
        times=times,
    )
