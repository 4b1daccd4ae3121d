import math
import random
import re

import numpy as np
import pytest

import phasewave.extended
from phasewave import (NATURAL_UNITS, AccuracyError, DataError, DegenerateProfileError,
                       ExtendedWigner, GridSpec, OscillatorParams, StandingWaveSpec, WaveProfile,
                       antinode_angles, check_parity, extended_eval, extended_field,
                       marginal_over_p, node_angles, normalization, phase_space_integral,
                       running_wave_profile, sample_field, standing_wave_eval,
                       standing_wave_field, stationary_field, stationary_profile,
                       wigner_stationary, xy_from_polar)

P = NATURAL_UNITS
SPEC = StandingWaveSpec(ell=3, A=2.0, C=5.0)


def polar_point(rho, phi):
    return tuple(float(c) for c in xy_from_polar(P, rho, phi))


def seeded_points(count=200, seed=3):
    rng = np.random.default_rng(seed)
    return [(float(x), float(p))
            for x, p in zip(rng.uniform(-3, 3, count), rng.uniform(-3, 3, count))]


# ---------------------------------------------------------------- profiles

def test_profile_periodicity_enforced():
    with pytest.raises(ValueError, match="periodic"):
        WaveProfile(f=lambda th: np.sin(th / 2.0), g=lambda th: 0.0, C=1.0, kappa=1)


def test_large_amplitude_waves_are_periodic_to_a_tolerance_scaled_by_their_size():
    # the rounding of A sin(theta) at |theta| up to 2 pi kappa grows as |A|; at HEAD
    # these two were refused with deviations 1.965e-10 and 2.910e-10
    assert StandingWaveSpec(ell=4, A=1e5, C=1.0).to_profile().norm == pytest.approx(1.0, rel=1e-11)
    assert running_wave_profile(A=1e6, C=1.0, kappa=1).norm == pytest.approx(1.0, rel=1e-9)
    # a half harmonic at kappa = 1 is still refused at that size, as a DataError
    with pytest.raises(DataError, match=r"not 2\*pi\*kappa periodic .* 1e-10 \* max\(1, max\|f\|\)"):
        WaveProfile(f=lambda th: 1e5 * np.sin(th / 2.0), g=lambda th: 0.0, C=1.0, kappa=1)
    with pytest.raises(DataError, match="returned non-finite values"):
        WaveProfile(f=lambda th: 0.0, g=lambda th: np.inf * th, C=1.0, kappa=1)


def test_periodicity_angles_are_the_seeded_uniform_draws():
    for kappa in range(1, 9):
        rng = random.Random(phasewave.extended._PROFILE_SEED)
        period = 2.0 * math.pi * kappa
        drawn = np.array([rng.uniform(-period, period) for _ in range(128)])
        seen = []

        def f(th, kappa=kappa):
            seen.append(th.copy())
            return np.cos(th / kappa)

        WaveProfile(f=f, g=lambda th: 0.0, C=1.0, kappa=kappa)
        assert seen[0].tobytes() == drawn.tobytes(), kappa


def test_profile_fractional_harmonic_allowed_for_matching_kappa():
    WaveProfile(f=lambda th: np.sin(th / 2.0), g=lambda th: 0.0, C=1.0, kappa=2)


def test_profile_validation():
    with pytest.raises(ValueError):
        WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=1.0, kappa=0)
    with pytest.raises(ValueError):
        WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=float("inf"), kappa=1)
    with pytest.raises(ValueError):
        WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=1.0, kappa=1.5)
    with pytest.raises(ValueError, match="C must be finite"):
        WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=True, kappa=1)


def test_standing_spec_validation_and_derived_quantities():
    with pytest.raises(ValueError):
        StandingWaveSpec(ell=0, A=1.0, C=1.0)
    with pytest.raises(ValueError):
        StandingWaveSpec(ell=1, A=1.0, C=0.0)
    with pytest.raises(ValueError):
        StandingWaveSpec(ell=1, A=1.0, C=-2.0)
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    assert spec.kappa == 6
    assert spec.omega_wave(1.0) == 6.0
    assert spec.period(1.0) == pytest.approx(math.pi / 3.0, rel=1e-15)


def test_standing_spec_refuses_bool_amplitude_and_offset():
    # a bool is not a real: each raises what a non-finite value raises
    for bad in (True, math.nan):
        with pytest.raises(ValueError, match="A must be finite"):
            StandingWaveSpec(ell=3, A=bad, C=5.0)
        with pytest.raises(ValueError, match="C must be finite and positive"):
            StandingWaveSpec(ell=3, A=2.0, C=bad)


def test_standing_spec_refuses_an_amplitude_whose_modulation_overflows():
    # the angular factor is 1 + (2A/C) cos(Omega t) sin(2 ell phi)
    for A, C in ((1e308, 1.0), (-1e308, 5.0), (1e300, 1e-10), (1.0, 1e-320)):
        with pytest.raises(ValueError, match="2A/C must be finite"):
            StandingWaveSpec(ell=2, A=A, C=C)
    spec = StandingWaveSpec(ell=2, A=8e307, C=1.0)
    assert 2.0 * spec.A / spec.C == 1.6e308


# ------------------------------------------------------------ normalization

def test_normalization_trivial_profile():
    assert normalization(stationary_profile(1.0)) == 1.0


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("C", [1.0, 5.0])
def test_normalization_standing_wave(ell, C):
    N = normalization(StandingWaveSpec(ell=ell, A=2.0, C=C).to_profile())
    assert N == pytest.approx(1.0 / C, abs=1e-12)
    assert 1.0 / N - C == pytest.approx(0.0, abs=1e-14)  # <f> + <g> = 1/N - C


def test_normalization_offset_sine():
    profile = WaveProfile(f=lambda th: 1.0 + np.sin(th), g=lambda th: 0.0, C=1.0, kappa=1)
    N = normalization(profile)
    assert 1.0 / N - profile.C == pytest.approx(1.0, abs=1e-13)  # <f> = 1/N - C, as <g> = 0
    assert N == pytest.approx(0.5, abs=1e-13)


def test_normalization_degenerate_profile():
    profile = WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=0.0, kappa=1)
    with pytest.raises(DegenerateProfileError):
        normalization(profile)


def test_extended_field_rejects_a_degenerate_profile_at_construction():
    profile = WaveProfile(f=lambda th: 0.0, g=lambda th: 0.0, C=0.0, kappa=1)
    with pytest.raises(DegenerateProfileError):
        extended_field(P, 0, profile)
    with pytest.raises(DegenerateProfileError):
        extended_eval(P, 0, profile, 0.3, 0.2, 0.0)


def test_profile_normalizes_once_and_takes_no_norm_from_the_caller(monkeypatch):
    calls = []
    real = phasewave.extended.normalization

    def counted(profile):
        calls.append(profile)
        return real(profile)

    monkeypatch.setattr(phasewave.extended, "normalization", counted)
    profile = WaveProfile(f=lambda th: 1.0 + np.sin(th), g=lambda th: 0.0, C=1.0, kappa=2)
    W = extended_field(P, 1, profile)
    for pt in seeded_points(5):
        assert extended_eval(P, 1, profile, *pt, 0.3) == float(W(*pt, 0.3))
    extended_field(P, 4, profile)
    assert calls == [profile]
    assert profile.norm == real(profile)
    assert profile.norm == pytest.approx(0.5, abs=1e-13)
    with pytest.raises(TypeError):
        extended_eval(P, 1, profile, 0.3, 0.2, 0.0, norm=real(profile))
    with pytest.raises(TypeError):
        extended_field(P, 1, profile, real(profile))


@pytest.mark.parametrize("kappa", [1, 3])
@pytest.mark.parametrize("A", [1e6, 1e8, 1e10, 1e12])
def test_large_amplitude_means_are_backed_by_their_rounding_or_refused(A, kappa):
    # the means of A cos carry rounding of about u A: held against the mean
    # rather than against A, it would read as a phase dependence past A = 1e9
    if A == 1e6:
        assert running_wave_profile(A=A, C=1.0, kappa=kappa).norm == pytest.approx(1.0, rel=1e-9)
    else:
        message = r"estimated rounding of .*, above 1e-09 \* \|C \+ <f> \+ <g>\| = 1\.000e-09"
        with pytest.raises(AccuracyError, match=message):
            running_wave_profile(A=A, C=1.0, kappa=kappa).norm
    # against a larger C the same rounding is small enough, and the value is right to it
    N = running_wave_profile(A=A, C=1e6, kappa=kappa).norm
    assert N * 1e6 == pytest.approx(1.0, abs=1e-9)


def test_a_phase_dependent_mean_is_refused_relative_to_the_largest_sample():
    # periodic on the sampled angles, so construction accepts it, but its mean
    # over the 4096 panels depends on the phase by far more than rounding
    f = lambda th: np.where(np.abs(np.sin(2048.0 * th)) < 0.01, 1e3, 0.0)
    with pytest.raises(DataError, match=r"depends on the wave phase .* 1e-09 \* max\(1, max\|f\|\)"):
        normalization(WaveProfile(f=f, g=lambda th: 0.0, C=1.0, kappa=1))
    with pytest.raises(DataError, match="profile function g returned non-finite values"):
        # infinite at theta = 0 alone, a panel angle but none of the periodicity angles
        normalization(WaveProfile(f=lambda th: 0.0, g=lambda th: np.where(th == 0.0, np.inf, 0.0),
                                  C=1.0, kappa=1))


def test_normalization_is_time_independent():
    # bracket means computed at two wave phases must agree; a plain sin profile
    # exercises the check without triggering it
    assert normalization(SPEC.to_profile()) == pytest.approx(0.2, abs=1e-13)


# ------------------------------------------------------- standing-wave bracket

def test_standing_wave_bracket_is_one_at_a_quarter_period():
    T = SPEC.period(P.omega)
    for phi in (0.1, 0.9, 2.5):
        assert abs(SPEC.bracket(phi, T / 4.0, P.omega) - 1.0) < 1e-12


def test_standing_wave_bracket_is_one_at_nodes():
    for t in (0.0, 0.21, 1.3):
        for phi in node_angles(SPEC):
            assert abs(SPEC.bracket(float(phi), t, P.omega) - 1.0) < 1e-12


def test_standing_wave_bracket_peak_value():
    phi = math.pi / (4.0 * SPEC.ell)
    assert SPEC.bracket(phi, 0.0, P.omega) == pytest.approx(1.0 + 2.0 * SPEC.A / SPEC.C,
                                                            rel=1e-14)


@pytest.mark.parametrize("params", [P, OscillatorParams(m=2.5, omega=0.8, hbar=0.3, alpha=0.7)])
def test_a_standing_wave_field_is_the_extended_wigner_of_its_spec(params):
    W = standing_wave_field(params, 3, SPEC)
    same = ExtendedWigner(params, 3, SPEC)
    assert isinstance(W, ExtendedWigner)
    # the subclass only binds __call__ in its own namespace, for tracers that patch it there
    assert [k for k, v in vars(type(W)).items() if callable(v)] == ["__call__"]
    assert vars(type(W))["__call__"] is ExtendedWigner.__call__
    rho, phi = np.array([0.0, 0.3, 1.1, 2.7]), np.linspace(0.0, 2.0 * math.pi, 9)
    for t in (0.0, 0.37, np.array([0.0, 0.37, 1.9])[:, None]):
        for got, want in zip(W.polar_factors(rho, phi, t), same.polar_factors(rho, phi, t)):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ----------------------------------------------------------- extended family

def test_extended_reduces_to_stationary():
    profile = stationary_profile(1.0)
    for pt in seeded_points(1000):
        got = extended_eval(P, 2, profile, *pt, 0.7)
        ref = wigner_stationary(P, 2, *pt)
        assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def test_extended_eval_standing_wave_example():
    # direct substitution at rho = 0.1, phi = pi/12, t = 0 for ell=3, A=2, C=5
    pt = polar_point(0.1, math.pi / 12.0)
    expected = (1.0 / math.pi) * math.exp(-0.01) * 1.8
    profile = SPEC.to_profile()
    got = extended_eval(P, 0, profile, *pt, 0.0)
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(0.5673, abs=2e-4)


def test_extended_eval_initial_time_form():
    profile = WaveProfile(f=lambda th: 0.3 * np.sin(th), g=lambda th: 0.2 * np.cos(th),
                          C=2.0, kappa=2)
    N = normalization(profile)
    rho, phi = 1.1, 0.77
    pt = polar_point(rho, phi)
    kern = wigner_stationary(P, 1, *pt)  # radial kernel value for n=1
    manual = N * kern * (2.0 + 0.3 * math.sin(2 * phi) + 0.2 * math.cos(-2 * phi))
    assert extended_eval(P, 1, profile, *pt, 0.0) == pytest.approx(manual, rel=1e-12)


def test_extended_eval_origin_uses_node_line_convention():
    profile = WaveProfile(f=lambda th: 0.5 * np.sin(th), g=lambda th: 0.0, C=2.0, kappa=2)
    N = normalization(profile)
    got = extended_eval(P, 0, profile, 0.0, 0.0, 0.3)
    assert got == pytest.approx(N * profile.C / math.pi, rel=1e-14)


def test_extended_field_matches_pointwise_eval():
    profile = SPEC.to_profile()
    W = extended_field(P, 0, profile)
    for pt in seeded_points(50, seed=5):
        assert float(W(*pt, 0.4)) == pytest.approx(
            extended_eval(P, 0, profile, *pt, 0.4), rel=1e-13)


def test_standing_wave_eval_matches_extended_machinery():
    profile = SPEC.to_profile()
    for t in (0.0, 0.11, 0.37):
        for pt in seeded_points(60, seed=7):
            a = standing_wave_eval(P, 5, SPEC, *pt, t)
            b = extended_eval(P, 5, profile, *pt, t)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_standing_wave_zero_amplitude_is_stationary():
    spec = StandingWaveSpec(ell=3, A=0.0, C=5.0)
    for pt in seeded_points(50, seed=9):
        assert standing_wave_eval(P, 1, spec, *pt, 0.9) == pytest.approx(
            wigner_stationary(P, 1, *pt), rel=1e-14)


def test_standing_wave_quarter_period_snapshots():
    T = SPEC.period(P.omega)
    for t in (T / 4.0, 3.0 * T / 4.0):
        for pt in seeded_points(100, seed=13):
            dev = abs(standing_wave_eval(P, 0, SPEC, *pt, t) - wigner_stationary(P, 0, *pt))
            assert dev <= 1e-12


def test_standing_wave_positive_when_ratio_below_one():
    W = standing_wave_field(P, 0, SPEC)  # 2A/C = 0.8 < 1
    xs = np.linspace(-4.0, 4.0, 201)
    vals = W(xs[:, None], xs[None, :], 0.0)
    assert vals.min() >= 0.0


def test_node_invariance_all_times():
    T = SPEC.period(P.omega)
    for n in (0, 5):
        for rho in (0.4, 1.0, 2.2):
            for t in (0.0, T / 8.0, 0.61 * T):
                for phi in node_angles(SPEC):
                    pt = polar_point(rho, float(phi))
                    dev = abs(standing_wave_eval(P, n, SPEC, *pt, t)
                              - wigner_stationary(P, n, *pt))
                    assert dev <= 1e-12


def test_temporal_periodicity():
    T = SPEC.period(P.omega)
    for pt in seeded_points(60, seed=17):
        for t in (0.0, 0.123, 0.4):
            a = standing_wave_eval(P, 0, SPEC, *pt, t)
            b = standing_wave_eval(P, 0, SPEC, *pt, t + T)
            assert abs(a - b) <= 1e-12


def test_angular_periodicity_of_bracket():
    profiles = [SPEC.to_profile(),
                WaveProfile(f=lambda th: np.sin(th / 2.0), g=lambda th: np.cos(th / 2.0),
                            C=3.0, kappa=2)]
    phis = np.linspace(0.0, 2 * math.pi, 37)
    for profile in profiles:
        for t in (0.0, 0.31):
            a = profile.bracket(phis, t, P.omega)
            b = profile.bracket(phis + 2 * math.pi, t, P.omega)
            assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12


def test_oscillation_symmetry_about_quarter_period():
    T = SPEC.period(P.omega)
    for pt in seeded_points(60, seed=19):
        for t in (0.0, 0.1 * T, 0.37 * T):
            total = (standing_wave_eval(P, 0, SPEC, *pt, t)
                     + standing_wave_eval(P, 0, SPEC, *pt, T / 2.0 - t))
            assert total == pytest.approx(2.0 * wigner_stationary(P, 0, *pt), abs=1e-12)


def test_antinode_extremality_on_dense_grid():
    phis = 2 * math.pi * np.arange(720) / 720
    anti_idx = np.rint(antinode_angles(SPEC) / (2 * math.pi / 720)).astype(int)
    rho = 0.9
    W = standing_wave_field(P, 0, SPEC)
    x = rho * np.cos(phis)
    p = rho * np.sin(phis)
    diff = np.abs(W(x, p, 0.0) - wigner_stationary(P, 0, rho, 0.0))
    top = diff.max()
    assert np.all(np.abs(diff[anti_idx] - top) <= 1e-12)


# ----------------------------------------------------------------- node sets

def test_node_angles_ell_three():
    nodes = node_angles(SPEC)
    assert len(nodes) == 12
    assert nodes[:4] == pytest.approx([0.0, math.pi / 6, math.pi / 3, math.pi / 2], rel=1e-15)
    anti = antinode_angles(SPEC)
    assert len(anti) == 12
    assert anti[:3] == pytest.approx([math.pi / 12, math.pi / 4, 5 * math.pi / 12], rel=1e-15)
    assert np.all(nodes >= 0.0) and np.all(nodes < 2 * math.pi)
    assert np.all(anti >= 0.0) and np.all(anti < 2 * math.pi)


def test_node_angles_ell_one():
    nodes = node_angles(StandingWaveSpec(ell=1, A=1.0, C=1.0))
    assert nodes == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2], rel=1e-15)


# -------------------------------------------------------------------- parity

def test_parity_standing_wave_passes():
    report = check_parity(P, SPEC)
    assert report.passed
    assert report.seed == phasewave.extended._PROFILE_SEED
    assert (report.samples, report.tol, len(report.times)) == (200, 1e-10, 5)
    assert report.max_violation_xbar <= report.tol


@pytest.mark.parametrize("A", [1e4, 1e8, -1e12])
def test_parity_of_a_large_standing_wave_is_measured_relative_to_its_size(A):
    # at A = 1e4 the absolute violations were 2.0e-10 in xbar and 1.1e-10 in p
    report = check_parity(P, StandingWaveSpec(ell=4, A=A, C=1.0))
    assert report.passed and report.tol == 1e-10
    assert max(report.max_violation_xbar, report.max_violation_p) <= report.tol


def test_parity_odd_kappa_sine_fails_on_xbar():
    profile = WaveProfile(f=lambda th: np.sin(th), g=lambda th: 0.0, C=1.0, kappa=1)
    report = check_parity(P, profile)
    assert not report.passed
    assert report.max_violation_xbar > report.tol


def test_parity_running_wave_fails():
    report = check_parity(P, running_wave_profile(A=0.4, C=1.0, kappa=2))
    assert not report.passed


@pytest.mark.parametrize("m", [1e-40, 1e-200])
def test_parity_samples_angles_in_widths_whatever_the_mass(m):
    # in physical (xbar, p) a tiny mass would squeeze every angle towards
    # the p axis and hide the violation in p; in widths each m sees it
    profile = WaveProfile(f=lambda th: 0.3 * np.sin(th), g=lambda th: 0.3 * np.cos(th),
                          C=1.0, kappa=1)
    natural = check_parity(P, profile)
    report = check_parity(OscillatorParams(m=m), profile)
    assert natural.max_violation_p > 0.8 and not report.passed
    assert (report.max_violation_xbar, report.max_violation_p, report.times) == \
        (natural.max_violation_xbar, natural.max_violation_p, natural.times)


# ------------------------------------------------------------ wave phase

PHASE_SPEC = StandingWaveSpec(ell=2, A=0.4, C=1.0)  # Omega = 4 omega, as kappa = 4 below


def _wave_fields(params):
    return (standing_wave_field(params, 1, PHASE_SPEC),
            extended_field(params, 1, PHASE_SPEC.to_profile()),
            extended_field(params, 1, running_wave_profile(A=0.4, C=1.0, kappa=4)))


@pytest.mark.parametrize("t", [1e308, -1e308, 5e307])
def test_a_finite_time_whose_wave_phase_overflows_raises_a_data_error(t):
    # Omega t overflows for |t| > 4.5e307; no numpy warning is emitted first
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=16)
    with pytest.raises(DataError, match="wave phase"):
        PHASE_SPEC.bracket(0.3, t, P.omega)
    message = re.escape(f"t = {t!r} takes the wave phase 4.0 * t to ") + "-?inf$"
    for W in _wave_fields(P):
        with pytest.raises(DataError, match=message):
            W(1.0, 1.0, t)
        for call in (lambda: W.polar_factors(np.ones(2), np.zeros(2), t),
                     lambda: sample_field(W, grid, t, P),
                     lambda: marginal_over_p(W, P, 0.3, t),
                     lambda: phase_space_integral(W, P, t)):
            with pytest.raises(DataError, match="wave phase"):
                call()
    # a stationary state has no wave phase: its value does not depend on t
    assert stationary_field(P, 1)(1.0, 1.0, t) == stationary_field(P, 1)(1.0, 1.0, 0.0)


def test_every_finite_wave_phase_keeps_its_bits():
    t = 4e307  # Omega t = 1.6e308, the largest phase here
    phi = np.linspace(0.0, 2.0 * math.pi, 7)
    assert PHASE_SPEC.bracket(phi, t, P.omega).tolist() == \
        (2.0 * 0.4 * math.cos(4.0 * t) * np.sin(4.0 * phi) / 1.0 + 1.0).tolist()
    profile = running_wave_profile(A=0.4, C=1.0, kappa=4)
    assert profile.bracket(phi, t, P.omega).tolist() == \
        (1.0 + 0.0 + 0.4 * np.cos(4.0 * t - 4.0 * phi)).tolist()
    for W in _wave_fields(P):
        assert np.all(np.isfinite(W(phi, phi, t)))


def test_wave_phase_overflow_depends_on_the_frequency():
    slow = OscillatorParams(omega=1e-100)  # Omega t = 4e-100 * 1e308 = 4e208
    for W in _wave_fields(slow):
        assert math.isfinite(float(W(1e-140, 1e-140, 1e308)))
    fast = OscillatorParams(omega=1e100)  # Omega t overflows past t = 4.5e207
    for W in _wave_fields(fast):
        assert math.isfinite(float(W(1.0, 1.0, 4e207)))
        with pytest.raises(DataError, match="wave phase"):
            W(1.0, 1.0, 5e207)
