import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from phasewave import (NATURAL_UNITS, AccuracyError, ConfigurationError, DataError,
                       ExtendedWigner, OscillatorParams, StandingWaveSpec,
                       StandingWaveWigner, StationaryWigner, energy_xy, extended_field,
                       laguerre_energy_identity, marginal_over_p, marginal_over_x, mean_energy,
                       momentum_density, phase_space_integral, position_density,
                       propagate_exact, radial_kernel, run_suite, running_wave_profile,
                       standing_wave_field, stationary_field, polar_from_xy,
                       xy_from_polar)
from phasewave import quadrature, verify, wigner
from phasewave.quadrature import EXTENT, N_LINE, TOL, _line_integral

from oracles import cartesian_integral, gauss_legendre, gauss_legendre_exact, wigner_kernel_exact

P = NATURAL_UNITS
GENERAL = OscillatorParams(m=2.0, omega=0.5, hbar=1.3, alpha=0.7)
SCALED = OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9)
UNITS = pytest.mark.parametrize("params", [P, SCALED, GENERAL],
                                ids=["natural", "scaled", "general"])


@pytest.mark.parametrize("n", [0, 3, 8])
def test_stationary_states_normalized(n):
    val = phase_space_integral(stationary_field(P, n), P)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_normalization_with_general_parameters():
    val = phase_space_integral(stationary_field(GENERAL, 1), GENERAL)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_error_estimate_bounds_true_error():
    val, est = phase_space_integral(stationary_field(P, 2), P, return_error=True)
    assert abs(val - 1.0) <= max(est, 1e-13)


def test_standing_wave_normalized_at_any_time():
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    W = standing_wave_field(P, 1, spec)
    T = spec.period(P.omega)
    for t in (0.0, 0.3 * T, 0.77 * T):
        assert phase_space_integral(W, P, t=t) == pytest.approx(1.0, abs=1e-8)


def test_extended_field_normalized():
    W = extended_field(P, 0, StandingWaveSpec(ell=2, A=1.0, C=2.0).to_profile())
    assert phase_space_integral(W, P, t=0.4) == pytest.approx(1.0, abs=1e-8)


def test_zero_field_integrates_to_zero_exactly():
    assert phase_space_integral(lambda x, p, t: np.zeros_like(x), P) == 0.0


@pytest.mark.parametrize("n", [0, 3])
def test_polar_integral_matches_cartesian_oracle(n):
    W = stationary_field(P, n)
    oracle = cartesian_integral(W, 8.0, 800)
    assert phase_space_integral(W, P) == pytest.approx(oracle, abs=1e-8)


def _gaussian_at(x0=0.0, p0=0.0):
    """Bare callable: a Gaussian of integral 1 and one width centred at (x0, p0), natural units."""
    return lambda x, p, t=0.0: np.exp(-((x - x0) ** 2 + (p - p0) ** 2)) / math.pi


def test_truncation_radius_guard():
    # the disk reaches EXTENT = 15.86 widths: a Gaussian 12 widths out is cut
    # off by 2.8e-8, one 8 widths out is not
    for integral in (phase_space_integral, mean_energy):
        with pytest.raises(ConfigurationError, match="outermost ring"):
            integral(_gaussian_at(12.0), P)
    assert phase_space_integral(_gaussian_at(8.0), P) == pytest.approx(1.0, abs=1e-13)
    assert mean_energy(_gaussian_at(0.0, -8.0), P) == pytest.approx(32.5, abs=1e-11)


def test_marginals_of_stationary_state():
    W = stationary_field(P, 0)
    assert marginal_over_p(W, P, 0.5) == pytest.approx(position_density(P, 0, 0.5), abs=1e-8)
    assert marginal_over_x(W, P, -0.8) == pytest.approx(momentum_density(P, 0, -0.8), abs=1e-8)


def test_marginals_of_standing_wave_match_densities():
    spec = StandingWaveSpec(ell=1, A=0.4, C=1.0)
    W = standing_wave_field(P, 5, spec)
    t = spec.period(P.omega) / 8.0
    for v in (-2.1, 0.0, 0.9):
        assert marginal_over_p(W, P, v, t) == pytest.approx(position_density(P, 5, v), abs=1e-6)
        assert marginal_over_x(W, P, v, t) == pytest.approx(momentum_density(P, 5, v), abs=1e-6)


def test_marginals_with_shifted_potential():
    W = stationary_field(GENERAL, 2)
    x = 0.3 - GENERAL.shift
    assert marginal_over_p(W, GENERAL, x) == pytest.approx(
        position_density(GENERAL, 2, x), abs=1e-8)
    assert marginal_over_x(W, GENERAL, 0.4) == pytest.approx(
        momentum_density(GENERAL, 2, 0.4), abs=1e-8)


def test_running_wave_marginal_deviates():
    profile = running_wave_profile(A=0.4, C=1.0, kappa=2)
    W = extended_field(P, 0, profile)
    devs = [abs(marginal_over_p(W, P, x, 0.0) - position_density(P, 0, x))
            for x in (0.5, 1.0, 2.0)]
    assert max(devs) > 1e-3


def test_parity_short_circuit_marginals_vanish():
    # the odd angular factor alone, weighted by the even kernel, integrates to ~0
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)

    def odd_part(x, p, t):
        rho, phi = polar_from_xy(P, x, p)
        return radial_kernel(P, 2, rho) * 2.0 * spec.A * math.cos(
            spec.omega_wave(P.omega) * t) * np.sin(2 * spec.ell * phi)

    for x in (0.7, -1.3):
        assert marginal_over_p(odd_part, P, x, 0.05) == pytest.approx(0.0, abs=1e-8)
    for p in (0.7, -1.3):
        assert marginal_over_x(odd_part, P, p, 0.05) == pytest.approx(0.0, abs=1e-8)


def _p_lines(W, x, n_panels, tol):
    """``marginal_over_p(W, P, x, return_error=True)`` on ``n_panels`` panels to ``tol``."""
    half = EXTENT * math.sqrt(P.m * P.hbar * P.omega)
    lines = np.asarray(x, dtype=float)[..., None]
    return _line_integral(lambda ps: W(lines, ps, 0.0), -half, half, n_panels, tol,
                          "marginal_over_p")


@pytest.mark.parametrize("k", [0.0, 3.0, 10.0, 20.0, 30.0, 40.0, 45.0, 50.0])
def test_line_rule_integrates_a_gaussian_cosine(k):
    # integral of exp(-x^2) cos(kx) = sqrt(pi) exp(-k^2/4); node spacing H
    # errs by about 2 sqrt(pi) exp(-(2 pi/H - k)^2/4), so on the marginal
    # window N_LINE panels hold k up to their Nyquist limit 50.7 to rounding,
    # and from k ~ 42 the sub-rule misses TOL and the line refines
    value, est = _line_integral(lambda xs: np.exp(-xs * xs) * np.cos(k * xs), -EXTENT, EXTENT,
                                N_LINE, TOL, "gaussian_cosine")
    exact = math.sqrt(math.pi) * math.exp(-k * k / 4.0)
    # below 1e-14 is the rounding of sums of order sqrt(pi)
    assert abs(value - exact) <= max(est, 1e-14)
    assert est <= TOL and abs(value - exact) <= TOL


def test_line_rule_never_passes_a_wrong_kinked_integral():
    # integral of |x - c| exp(-(x - c)^2) = 1; the kink holds the trapezoid to
    # O(h^2), so each line either meets TOL or raises AccuracyError
    shifts = np.array([0.0, 0.01, 0.3, math.pi / 10.0, 1.0 / 3.0, 2.0])

    def kinked(c):
        return lambda xs: np.abs(xs - c) * np.exp(-(xs - c) ** 2)

    for c in [float(c) for c in shifts] + [shifts[:, None]]:
        try:
            value, est = _line_integral(kinked(c), -EXTENT, EXTENT, N_LINE, TOL, "kinked")
        except AccuracyError as err:
            assert not err.estimate <= TOL
            continue
        assert np.all(est <= TOL) and np.all(np.abs(value - 1.0) <= TOL)


def test_line_rule_on_a_window_per_line_keeps_each_lone_lines_bits():
    # three lines of three windows: only the k = 45 line misses TOL on
    # N_LINE panels, and it alone takes the batch's midpoint refinement
    k = np.array([3.0, 45.0, 20.0])[:, None]
    a = -EXTENT
    b = np.array([EXTENT, EXTENT, 0.7 * EXTENT])

    def gaussian_cosine(k, calls):
        def f(xs):
            calls.append(xs.shape)
            return np.exp(-xs * xs) * np.cos(k * xs)
        return f

    calls = []
    values, ests = _line_integral(gaussian_cosine(k, calls), a, b, N_LINE, TOL, "batch")
    assert calls == [(3, N_LINE + 1), (3, N_LINE)]
    for k_line, b_line, value, est, panels in zip(k[:, 0], b, values, ests, (1, 2, 1)):
        calls = []
        alone = _line_integral(gaussian_cosine(float(k_line), calls), a, float(b_line), N_LINE,
                               TOL, "alone")
        assert len(calls) == panels
        assert (value.tobytes(), est.tobytes()) == (np.float64(alone[0]).tobytes(),
                                                    np.float64(alone[1]).tobytes())


def test_line_rule_refuses_only_a_batch_with_a_truncated_line_and_names_its_truncation():
    def gaussian(xs):
        return np.exp(-xs * xs)

    wide = np.array([EXTENT, 5.0, EXTENT])  # 10 e^-25 is below TOL
    values, _ = _line_integral(gaussian, -wide, wide, N_LINE, TOL, "wide")
    assert np.all(np.abs(values - math.sqrt(math.pi)) <= TOL)
    # the middle line stops at 2 widths and truncates 4 e^-4; the last, at
    # 3 widths, truncates only 6 e^-9, also above TOL
    ends = np.array([EXTENT, 2.0, 3.0])
    end, trunc = math.exp(-4.0), 4.0 * math.exp(-4.0)
    with pytest.raises(ConfigurationError,
                       match=f"reaches {end:.3e} at the window ends, which can truncate up to "
                             f"{trunc:.3e}"):
        _line_integral(gaussian, -ends, ends, N_LINE, TOL, "truncated")


def test_line_rule_refined_once_returns_the_finer_trapezoid_and_their_distance():
    # exp(-x^2) / (x^2 + 0.08) has poles at x = +-0.283i, so the trapezoid
    # converges geometrically but slowly: on the marginal window the 512-panel
    # rule misses its 256-panel sub-rule by 1.4e-5 and the 1024-panel rule by
    # 8.3e-12, well above the rounding of sums of size 8
    def f(xs):
        return np.exp(-xs * xs) / (xs * xs + 0.08)

    def trapezoid(n):
        xs = np.linspace(-EXTENT, EXTENT, n + 1)
        vals = f(xs)
        return 2.0 * EXTENT / n * (vals.sum() - 0.5 * (vals[0] + vals[-1]))

    calls = []

    def counted(xs):
        calls.append(xs.shape)
        return f(xs)

    value, est = _line_integral(counted, -EXTENT, EXTENT, N_LINE, TOL, "pole_pair")
    assert calls == [(N_LINE + 1,), (N_LINE,)]  # the panel ends, then the midpoints
    t_n, t_2n = trapezoid(N_LINE), trapezoid(2 * N_LINE)
    ulp = math.ulp(t_2n)
    assert abs(value - t_2n) <= 4 * ulp
    assert abs(est - abs(t_2n - t_n)) <= 4 * ulp
    assert abs(t_2n - t_n) > 1000 * ulp and est <= TOL


def test_marginal_accuracy_error_when_unreachable():
    W = stationary_field(P, 5)
    with pytest.raises(AccuracyError) as err:
        _p_lines(W, 0.3, 8, 1e-16)
    assert err.value.estimate is not None


@pytest.mark.parametrize("n", [0, 1, 5])
def test_mean_energy_levels(n):
    assert mean_energy(stationary_field(P, n), P) == pytest.approx(n + 0.5, abs=1e-6)


def test_mean_energy_standing_wave_time_independent():
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    W = standing_wave_field(P, 1, spec)
    T = spec.period(P.omega)
    vals = [mean_energy(W, P, t) for t in (0.0, T / 8.0, T / 4.0)]
    assert max(vals) - min(vals) <= 1e-6
    assert vals[0] == pytest.approx(1.5, abs=1e-6)


def test_mean_energy_dimensionless_under_frequency_change():
    doubled = OscillatorParams(omega=2.0)
    val = mean_energy(stationary_field(doubled, 0), doubled)
    assert val == pytest.approx(0.5, abs=1e-6)


def test_laguerre_energy_identity_values():
    assert laguerre_energy_identity(0) == pytest.approx(0.25, abs=1e-10)
    assert laguerre_energy_identity(1) == pytest.approx(-0.75, abs=1e-9)
    assert laguerre_energy_identity(5) == pytest.approx(-2.75, abs=1e-9)


def test_laguerre_energy_identity_full_range():
    for n in range(9):
        expected = (-1.0) ** n * (2 * n + 1) / 4.0
        assert laguerre_energy_identity(n) == pytest.approx(expected, abs=1e-9)


def test_laguerre_energy_identity_every_order():
    # L_n(4 eps) oscillates out to eps = n + 1/2; the rule reaches EXTENT^2 / 2 = 125.7
    for n in range(65):
        expected = (-1.0) ** n * (2 * n + 1) / 4.0
        assert laguerre_energy_identity(n) == pytest.approx(expected, abs=1e-12), n


@UNITS
def test_every_order_has_exact_marginals(params):
    at = np.linspace(-2.0, 2.0, 5)
    for n in range(65):
        W = stationary_field(params, n)
        assert np.max(np.abs(marginal_over_p(W, params, at - params.shift)
                             - position_density(params, n, at - params.shift))) <= 1e-12, n
        assert np.max(np.abs(marginal_over_x(W, params, at)
                             - momentum_density(params, n, at))) <= 1e-12, n



@pytest.mark.parametrize("params", [P, SCALED], ids=["natural", "scaled"])
@pytest.mark.parametrize("n", [28, 32, 48, 64])
def test_marginals_refuse_a_window_that_truncates_the_integrand(n, params):
    # order n moved onto the window end, as a bare callable, is refused on
    # every line; in place, the same order integrates to the exact densities
    W = stationary_field(params, n)
    dp = EXTENT * math.sqrt(params.m * params.hbar * params.omega)
    dx = EXTENT * math.sqrt(params.hbar / (params.m * params.omega))
    moved = {marginal_over_p: lambda x, p, t=0.0: W(x, p - dp, t),
             marginal_over_x: lambda x, p, t=0.0: W(x - dx, p, t)}
    for marginal, field in moved.items():
        for at in (0.3, np.array([5.0, 0.3])):
            with pytest.raises(ConfigurationError, match="window ends"):
                marginal(field, params, at)
    at = np.linspace(-2.0, 2.0, 5)
    assert np.max(np.abs(marginal_over_p(W, params, at)
                         - position_density(params, n, at))) <= 1e-12
    assert np.max(np.abs(marginal_over_x(W, params, at)
                         - momentum_density(params, n, at))) <= 1e-12

def test_window_check_reads_the_values_the_rule_computes():
    calls = []

    def W(x, p, t=0.0):
        calls.append(np.broadcast(x, p).shape)
        return stationary_field(P, 30)(x, p, t)

    assert marginal_over_p(W, P, 0.3) == pytest.approx(position_density(P, 30, 0.3), abs=1e-12)
    assert calls == [(N_LINE + 1,)]
    # a Gaussian centred on either end of the window
    for end in (EXTENT, -EXTENT):
        with pytest.raises(ConfigurationError, match="window ends"):
            marginal_over_p(lambda x, p, t=0.0: np.exp(-(p - end) ** 2) + 0.0 * x, P, 0.3)
    with pytest.raises(ConfigurationError, match="window ends"):
        marginal_over_x(lambda x, p, t=0.0: np.exp(-(x - EXTENT) ** 2) + 0.0 * p, P, 0.3)


def _bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("marginal", [marginal_over_p, marginal_over_x])
@pytest.mark.parametrize("params", [P, GENERAL], ids=["natural", "general"])
def test_batched_marginal_lines_equal_scalar_calls(marginal, params):
    lines = np.linspace(-2.9, 3.1, 12).reshape(3, 4)
    fields = [stationary_field(params, 3),
              standing_wave_field(params, 5, StandingWaveSpec(ell=3, A=2.0, C=5.0)),
              extended_field(params, 1, running_wave_profile(A=0.4, C=1.0, kappa=2))]
    for W in fields:
        values, ests = marginal(W, params, lines, 0.3, return_error=True)
        assert values.shape == ests.shape == lines.shape
        for value, est, pos in zip(values.ravel(), ests.ravel(), lines.ravel()):
            alone = marginal(W, params, float(pos), 0.3, return_error=True)
            assert (_bits(value), _bits(est)) == (_bits(alone[0]), _bits(alone[1]))


def _counting(W, calls):
    def f(x, p, t):
        calls.append(np.broadcast_shapes(np.shape(x), np.shape(p)))
        return W(x, p, t)
    return f


def test_batch_keeps_each_line_at_its_own_refinement_level():
    # on 48 panels the lines stop after 0, 1 and 2 midpoint refinements
    W = stationary_field(P, 5)
    xs = np.linspace(-4.5, 4.5, 11)
    n_panels = 48
    alone, levels = [], []
    for x in xs:
        calls = []
        alone.append(_p_lines(_counting(W, calls), float(x), n_panels, 1e-6))
        levels.append(len(calls) - 1)
    assert len(set(levels)) >= 3
    calls = []
    values, ests = _p_lines(_counting(W, calls), xs, n_panels, 1e-6)
    assert calls == [(11, n_panels + 1)] + [(11, n_panels << k) for k in range(max(levels))]
    for value, est, (v, e) in zip(values, ests, alone):
        assert (_bits(value), _bits(est)) == (_bits(v), _bits(e))


def test_batch_accuracy_error_reports_the_worst_line():
    # on 12 panels, refined up to 96, the middle lines fail and the outer ones pass
    W = stationary_field(P, 5)
    xs = np.linspace(-4.5, 4.5, 11)
    failures = []
    for x in xs:
        try:
            _p_lines(W, float(x), 12, 1e-6)
        except AccuracyError as err:
            failures.append((err.estimate, err.value))
    assert 0 < len(failures) < len(xs)
    with pytest.raises(AccuracyError) as err:
        _p_lines(W, xs, 12, 1e-6)
    assert (err.value.estimate, err.value.value) == max(failures)


# -- factored disk rule and the extent ----------------------------------------

def _separable_fields(params):
    return [stationary_field(params, 4),
            standing_wave_field(params, 2, StandingWaveSpec(ell=1, A=0.4, C=1.0)),
            standing_wave_field(params, 5, StandingWaveSpec(ell=3, A=2.0, C=5.0)),
            extended_field(params, 1, running_wave_profile(A=0.4, C=1.0, kappa=2)),
            extended_field(params, 3, StandingWaveSpec(ell=2, A=1.0, C=2.0).to_profile())]


def _bare(W):
    """The same field without ``polar_factors``: integrated on the full tensor grid."""
    return lambda x, p, t: W(x, p, t)


FACTORED_TIMES = (0.0, 0.37, 2.9)


@pytest.mark.parametrize("params", [P, SCALED], ids=["natural", "scaled"])
def test_factored_rule_matches_tensor_rule(params):
    for W in _separable_fields(params):
        for t in FACTORED_TIMES:
            assert phase_space_integral(W, params, t=t) == pytest.approx(
                phase_space_integral(_bare(W), params, t=t), abs=1e-13)
            assert mean_energy(W, params, t) == pytest.approx(
                mean_energy(_bare(W), params, t), abs=1e-13)


@pytest.mark.parametrize("params", [P, SCALED], ids=["natural", "scaled"])
def test_factored_rule_matches_cartesian_oracle(params):
    # Simpson on a square grid in u = omega xbar, v = p/m, where dx dp = (m/omega) du dv;
    # its symmetry cancels the angular jump of a modulated field at the origin
    jacobian = params.m / params.omega
    half = 11.0 * math.sqrt(params.hbar * params.omega / params.m)
    t = 0.37
    for W in _separable_fields(params):
        def in_uv(u, v, t):
            return W(u / params.omega - params.shift, params.m * v, t)

        def energy_weighted(u, v, t):
            return params.m * (u * u + v * v) / (2.0 * params.hbar * params.omega) * in_uv(u, v, t)

        assert phase_space_integral(W, params, t=t) == pytest.approx(
            jacobian * cartesian_integral(in_uv, half, 600, t), abs=1e-8)
        assert mean_energy(W, params, t) == pytest.approx(
            jacobian * cartesian_integral(energy_weighted, half, 600, t), abs=1e-8)


@pytest.mark.parametrize("params", [P, SCALED], ids=["natural", "scaled"])
def test_polar_factors_outer_product_is_the_field(params):
    xg, _ = np.polynomial.legendre.leggauss(64)
    rho = 3.5 * (xg + 1.0)
    phi = 2.0 * math.pi * np.arange(48) / 48
    x, p = xy_from_polar(params, rho[:, None], phi[None, :])
    for W in _separable_fields(params):
        for t in FACTORED_TIMES:
            radial, angular = W.polar_factors(rho, phi, t)
            assert np.shape(radial) == rho.shape and np.shape(angular) == phi.shape
            direct = W(x, p, t)
            scale = float(np.max(np.abs(direct)))
            assert np.max(np.abs(np.outer(radial, angular) - direct)) <= 1e-11 * scale


def test_disk_integrals_of_the_suite_never_call_a_field(monkeypatch):
    calls = []
    for cls in (StationaryWigner, StandingWaveWigner, ExtendedWigner):
        def counted(self, x, p, t=0.0, _call=cls.__call__):
            calls.append(type(self).__name__)
            return _call(self, x, p, t)
        monkeypatch.setattr(cls, "__call__", counted)
    report = run_suite(["stationary_normalization", "energy_spectrum"])
    assert report.passed
    assert calls == []


def test_line_rules_of_the_suite_run_on_n_line_panels(monkeypatch):
    # every line integral of the suite starts on N_LINE panels, and only the
    # running wave's marginal, whose angular factor turns within |p| ~ |x|
    # on its lines near x = 0, takes one midpoint refinement
    traffic, current = [], []
    rule = quadrature._line_integral

    def counted(f, a, b, n_panels, tol, label, *max_step):
        nodes = []
        traffic.append((current[-1], label, nodes))

        def g(xs):
            nodes.append(xs.shape[-1])
            return f(xs)
        return rule(g, a, b, n_panels, tol, label, *max_step)

    for module in (quadrature, wigner):
        monkeypatch.setattr(module, "_line_integral", counted)
    for name, (check, takes_tol) in list(verify.SUITES.items()):
        def tracked(*args, _name=name, _check=check, **kwargs):
            current.append(_name)
            return _check(*args, **kwargs)
        monkeypatch.setitem(verify.SUITES, name, (tracked, takes_tol))
    assert run_suite().passed
    assert traffic and all(nodes[0] == N_LINE + 1 for _, _, nodes in traffic)
    refined = [(name, label, nodes) for name, label, nodes in traffic if len(nodes) > 1]
    assert refined == [("running_wave_rejection", "marginal_over_p", [N_LINE + 1, N_LINE])]


def test_line_integrals_per_check_of_the_suite(monkeypatch):
    # marginal_identities integrates each (state, ell, axis) once for all
    # four times: 3 states x 2 ells x 2 axes batches, not 48; and
    # transform_oracle_agreement each order's 9x9 grid at once, not per x
    per_check, current = {}, []
    rule = quadrature._line_integral

    def counted(*args):
        per_check[current[-1]] = per_check.get(current[-1], 0) + 1
        return rule(*args)

    for module in (quadrature, wigner):
        monkeypatch.setattr(module, "_line_integral", counted)
    for name, (check, takes_tol) in list(verify.SUITES.items()):
        def tracked(*args, _name=name, _check=check, **kwargs):
            current.append(_name)
            return _check(*args, **kwargs)
        monkeypatch.setitem(verify.SUITES, name, (tracked, takes_tol))
    assert run_suite().passed
    assert per_check == {"marginal_identities": 12, "transform_oracle_agreement": 5,
                         "running_wave_rejection": 1}


def test_bare_callable_keeps_tensor_levels():
    calls = []
    val = phase_space_integral(_counting(stationary_field(P, 2), calls), P)
    assert calls == [(256, 256), (512, 512)]
    assert val == pytest.approx(1.0, abs=1e-8)


@UNITS
def test_every_order_integrates_over_the_disk(params):
    for n in range(65):
        W = stationary_field(params, n)
        assert phase_space_integral(W, params) == pytest.approx(1.0, abs=1e-13), n
        assert mean_energy(W, params) == pytest.approx(n + 0.5, abs=1e-12), n


@UNITS
def test_modulated_fields_of_the_highest_order(params):
    at = np.linspace(-2.0, 2.0, 5)
    for W in (standing_wave_field(params, 64, StandingWaveSpec(ell=3, A=2.0, C=5.0)),
              extended_field(params, 64, StandingWaveSpec(ell=2, A=1.0, C=2.0).to_profile())):
        for t in FACTORED_TIMES:
            assert phase_space_integral(W, params, t=t) == pytest.approx(1.0, abs=1e-13)
            assert mean_energy(W, params, t) == pytest.approx(64.5, abs=1e-12)
            assert np.max(np.abs(marginal_over_p(W, params, at, t)
                                 - position_density(params, 64, at))) <= 1e-12
            assert np.max(np.abs(marginal_over_x(W, params, at, t)
                                 - momentum_density(params, 64, at))) <= 1e-12


def test_bare_callable_of_a_high_order_integrates_exactly():
    W = stationary_field(P, 16)
    assert phase_space_integral(lambda x, p, t: W(x, p, t), P) == pytest.approx(1.0, abs=1e-13)
    assert mean_energy(lambda x, p, t: W(x, p, t), P) == pytest.approx(16.5, abs=1e-12)



@pytest.mark.parametrize("rho_max, n", [(12.0, 16), (14.0, 24), (15.0, 32), (20.0, 64)])
def test_high_orders_integrate_exactly_on_a_wide_disk(rho_max, n):
    # the default disk matches an independent radial rule on a disk of
    # radius rho_max, which reaches past EXTENT for n = 64
    def f(rho):
        return 2.0 * math.pi * radial_kernel(P, n, rho) * rho

    wide = gauss_legendre(f, 0.0, rho_max, 400)
    W = stationary_field(P, n)
    assert wide == pytest.approx(1.0, abs=1e-12)
    assert phase_space_integral(W, P) == pytest.approx(wide, abs=1e-12)
    assert mean_energy(W, P) == pytest.approx(n + 0.5, abs=1e-12)

def test_extent_leaves_every_order_negligible():
    # at the edge, |kernel_n| rho (1 + eps) bounds the integrands of the
    # normalization (rho) and of the mean energy (rho eps), in natural units
    rho = Fraction(EXTENT)
    eps = rho * rho / 2
    for n in range(65):
        kernel = abs(Fraction(wigner_kernel_exact(n, EXTENT)))
        assert kernel * rho * (1 + eps) < Fraction(1e-20) / Fraction(math.pi), n


def test_non_finite_times_are_refused():
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    fields = [stationary_field(P, 2), standing_wave_field(P, 2, spec),
              extended_field(P, 2, spec.to_profile())]
    rho, phi = np.array([0.5, 1.0]), np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (math.nan, math.inf, -math.inf):
            for W in fields:
                with pytest.raises(DataError, match="t must be finite"):
                    W(0.3, 0.2, t)
                with pytest.raises(DataError, match="t must be finite"):
                    W.polar_factors(rho, phi, t)
                with pytest.raises(DataError, match="t must be finite"):
                    phase_space_integral(W, P, t=t)
                with pytest.raises(DataError, match="t must be finite"):
                    marginal_over_p(W, P, 0.3, t)
                with pytest.raises(DataError, match="t must be finite"):
                    propagate_exact(W, P, t)


def test_bool_times_are_refused():
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    fields = [stationary_field(P, 2), standing_wave_field(P, 2, spec),
              extended_field(P, 2, spec.to_profile())]
    rho, phi = np.array([0.5, 1.0]), np.array([0.0, 1.0])
    for W in fields:
        with pytest.raises(DataError, match="t must be finite, got True"):
            W(0.3, 0.2, True)
        with pytest.raises(DataError, match="t must be finite, got True"):
            W.polar_factors(rho, phi, True)
        for integral in (phase_space_integral, mean_energy):
            with pytest.raises(DataError, match="t must be finite, got True"):
                integral(W, P, True)
        for marginal in (marginal_over_p, marginal_over_x):
            with pytest.raises(DataError, match="t must be finite, got True"):
                marginal(W, P, 0.3, True)


def test_non_finite_integrands_never_converge():
    def nan_field(x, p, t=0.0):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(p)), np.nan)

    def inf_near_origin(x, p, t=0.0):
        return np.where(x * x + p * p < 0.01, np.inf, np.exp(-(x * x + p * p)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (nan_field, inf_near_origin):
            for integral in (phase_space_integral, mean_energy):
                with pytest.raises(AccuracyError):
                    integral(f, P)
            for marginal in (marginal_over_p, marginal_over_x):
                with pytest.raises(AccuracyError):
                    marginal(f, P, 0.0)
                with pytest.raises(AccuracyError):
                    marginal(f, P, np.array([1.0, 0.0]))


# ------------------------------------------------------------- Gauss-Legendre

@pytest.mark.parametrize("n", [1, 2, 3, 16, 256, 512])
def test_leggauss_against_a_40_digit_reference(n):
    nodes, weights = (a.astype(float) for a in quadrature._leggauss(n))
    exact_nodes, exact_weights = gauss_legendre_exact(n)
    numpy_nodes = np.polynomial.legendre.leggauss(n)[0]

    def node_error(xs):
        return max(abs(Decimal(float(x)) - e) for x, e in zip(xs, exact_nodes))

    assert node_error(nodes) <= node_error(numpy_nodes)
    assert max(abs(Decimal(float(w)) / e - 1) for w, e in zip(weights, exact_weights)) <= 2e-11
    if np.finfo(np.longdouble).nmant > np.finfo(float).nmant:
        # the last Newton step and the map to [a, b] run wider than a double:
        # every node rounds correctly, and so does every radius of the disk
        # rule, up to the wider type's rounding of x + 1 near x = -1
        assert nodes.tolist() == [float(e) for e in exact_nodes]
        radii, _ = quadrature._gl_nodes(n, 0.0, EXTENT)
        slack = Decimal(EXTENT * float(np.finfo(np.longdouble).eps))
        for r, e in zip(radii, exact_nodes):
            assert abs(Decimal(float(r)) - Decimal(EXTENT) / 2 * (e + 1)) \
                <= Decimal(float(np.spacing(r))) / 2 + slack


@pytest.mark.parametrize("n", list(range(1, 65)) + [100, 255, 256, 511, 512, 1023, 1024])
def test_leggauss_agrees_with_numpy(n):
    nodes, weights = quadrature._leggauss(n)
    numpy_nodes, numpy_weights = np.polynomial.legendre.leggauss(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    # numpy's nodes are within about an ulp of the roots; its weights carry
    # up to 1.2e-9 relative error at n = 1024
    assert np.max(np.abs(nodes - numpy_nodes)) <= 2.3e-16
    assert np.max(np.abs(weights / numpy_weights - 1.0)) <= 5e-9
    assert abs(weights.sum() - 2.0) <= 1e-14


def test_leggauss_costs_a_third_of_numpys_in_a_fresh_interpreter():
    # the disk rule's two sizes, each timed once in a new process, where
    # neither rule has cached anything; the best of three runs counts, so
    # that another process on the machine cannot fail the test alone
    code = (
        "import time\n"
        "import numpy.polynomial.legendre as legendre\n"
        "from phasewave.quadrature import _leggauss\n"
        "def cost(rule):\n"
        "    start = time.perf_counter()\n"
        "    rule(256), rule(512)\n"
        "    return time.perf_counter() - start\n"
        "print(cost(_leggauss) / cost(legendre.leggauss))\n"
    )
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    ratios = []
    for _ in range(3):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        ratios.append(float(done.stdout))
        if ratios[-1] <= 1.0 / 3.0:
            break
    assert min(ratios) <= 1.0 / 3.0, ratios
