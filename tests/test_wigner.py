import math
import re
import struct

import numpy as np
import pytest

from phasewave import (NATURAL_UNITS, OscillatorParams, StandingWaveSpec,
                       energy_xy, extended_field, momentum_density,
                       polar_from_xy, position_density, radial_kernel, running_wave_profile,
                       standing_wave_field, stationary_field, wavefunction,
                       wigner_from_wavefunction, wigner_stationary)
from phasewave.errors import AccuracyError, DataError
from phasewave.quadrature import TOL

from oracles import lag_series, p_derivative_polynomial, simpson, wigner_kernel_exact

GENERAL = OscillatorParams(m=2.0, omega=0.7, hbar=1.3, alpha=0.9)
SCALED = OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9)


def test_origin_values():
    assert wigner_stationary(NATURAL_UNITS, 0, 0, 0) == pytest.approx(1 / math.pi, rel=1e-15)
    assert wigner_stationary(NATURAL_UNITS, 1, 0, 0) == pytest.approx(-1 / math.pi, rel=1e-15)


def test_second_state_value_against_series_oracle():
    # eps = 1/2 at (1, 0), so the Laguerre argument is 2
    expected = math.exp(-1.0) / math.pi * lag_series(2, 2.0)
    assert expected == pytest.approx(-0.11709966304863834, rel=1e-12)
    assert wigner_stationary(NATURAL_UNITS, 2, 1.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_sign_structure_at_origin():
    for n in range(9):
        val = wigner_stationary(NATURAL_UNITS, n, 0, 0)
        assert val == (-1.0) ** n / math.pi


def test_radial_symmetry_on_fixed_energy_circle():
    rng = np.random.default_rng(11)
    rho = math.sqrt(2 * 0.8)  # eps = 0.8
    for n in (0, 3, 5):
        vals = []
        for phi in rng.uniform(0.0, 2 * math.pi, 64):
            pt = (rho * math.cos(phi), rho * math.sin(phi))
            vals.append(wigner_stationary(NATURAL_UNITS, n, *pt))
        vals = np.asarray(vals)
        assert np.max(np.abs(vals - vals[0])) <= 1e-12 * max(1.0, abs(vals[0]))


def test_position_density_against_quadrature_oracle():
    for x in (0.0, 0.7):
        oracle = simpson(lambda ps: stationary_field(NATURAL_UNITS, 0)(x, ps, 0.0),
                         -12.0, 12.0, 4096)
        assert position_density(NATURAL_UNITS, 0, x) == pytest.approx(oracle, abs=1e-12)
    assert position_density(NATURAL_UNITS, 0, 0.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-14)


def test_position_density_odd_state_node():
    assert position_density(NATURAL_UNITS, 1, 0.0) == 0.0


@pytest.mark.parametrize("params", [NATURAL_UNITS, GENERAL])
@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_densities_normalized_and_nonnegative(params, n):
    xw = 12.0 * math.sqrt(params.hbar / (params.m * params.omega))
    shift = params.shift
    xs = np.linspace(-xw - shift, xw - shift, 4097)
    dens = position_density(params, n, xs)
    assert np.all(dens >= 0.0)
    total = simpson(lambda v: position_density(params, n, v), -xw - shift, xw - shift, 4096)
    assert total == pytest.approx(1.0, abs=1e-8)

    pw_ = 12.0 * math.sqrt(params.m * params.hbar * params.omega)
    dens = momentum_density(params, n, np.linspace(-pw_, pw_, 4097))
    assert np.all(dens >= 0.0)
    total = simpson(lambda v: momentum_density(params, n, v), -pw_, pw_, 4096)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_momentum_density_against_quadrature_oracle():
    for p in (0.0, -0.9):
        oracle = simpson(lambda xs: stationary_field(NATURAL_UNITS, 0)(xs, p, 0.0),
                         -12.0, 12.0, 4096)
        assert momentum_density(NATURAL_UNITS, 0, p) == pytest.approx(oracle, abs=1e-12)
    assert momentum_density(NATURAL_UNITS, 0, 0.0) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-14)
    assert momentum_density(NATURAL_UNITS, 1, 0.0) == 0.0


def test_wavefunction_normalization_general_params():
    total = simpson(lambda xs: wavefunction(GENERAL, 4, xs) ** 2, -14.0, 14.0, 4096)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_transform_matches_closed_form_at_named_points():
    assert wigner_from_wavefunction(NATURAL_UNITS, 0, 0, 0) == pytest.approx(1 / math.pi, abs=1e-8)
    assert wigner_from_wavefunction(NATURAL_UNITS, 1, 0, 0) == pytest.approx(-1 / math.pi, abs=1e-8)
    pt = (0.7, -1.1)
    assert wigner_from_wavefunction(NATURAL_UNITS, 3, *pt) == pytest.approx(
        wigner_stationary(NATURAL_UNITS, 3, *pt), abs=1e-7)


@pytest.mark.parametrize("n", [0, 2])
def test_transform_matches_closed_form_on_grid(n):
    for x in np.linspace(-2.0, 2.0, 5):
        for p in np.linspace(-2.0, 2.0, 5):
            pt = (float(x), float(p))
            assert wigner_from_wavefunction(NATURAL_UNITS, n, *pt) == pytest.approx(
                wigner_stationary(NATURAL_UNITS, n, *pt), abs=1e-7)


def test_transform_matches_closed_form_general_params():
    pt = (0.4, -0.6)
    assert wigner_from_wavefunction(GENERAL, 2, *pt) == pytest.approx(
        wigner_stationary(GENERAL, 2, *pt), abs=1e-7)


@pytest.mark.parametrize("params", [NATURAL_UNITS, GENERAL], ids=["natural", "general"])
def test_transform_momentum_batch_equals_single_calls(params):
    momenta = np.linspace(-3.0, 3.0, 9)
    for n in (0, 3):
        for x in (-1.1, 0.4):
            values, ests = wigner_from_wavefunction(params, n, x, momenta, return_error=True)
            for p, value, est in zip(momenta, values, ests):
                alone = wigner_from_wavefunction(params, n, x, float(p), return_error=True)
                assert (value.tobytes(), est.tobytes()) == (
                    np.float64(alone[0]).tobytes(), np.float64(alone[1]).tobytes())


@pytest.mark.parametrize("n", [0, 3, 64])
@pytest.mark.parametrize("params", [NATURAL_UNITS, GENERAL], ids=["natural", "general"])
def test_transform_grid_batch_equals_single_calls(params, n):
    # each position has its own window, so one batch runs lines of nine widths
    positions = np.linspace(-3.0, 3.0, 9)
    momenta = np.linspace(-2.5, 2.9, 7)
    values, ests = wigner_from_wavefunction(params, n, positions[:, None], momenta,
                                           return_error=True)
    assert values.shape == ests.shape == (9, 7)
    for x, v_row, e_row in zip(positions, values, ests):
        for p, value, est in zip(momenta, v_row, e_row):
            alone = wigner_from_wavefunction(params, n, float(x), float(p), return_error=True)
            assert (value.tobytes(), est.tobytes()) == (
                np.float64(alone[0]).tobytes(), np.float64(alone[1]).tobytes()), (x, p)


@pytest.mark.parametrize("params", [NATURAL_UNITS, SCALED], ids=["natural", "scaled"])
def test_transform_matches_exact_kernel_for_every_order(params):
    # the window must reach past the turning point sqrt(2n+1) of each order
    for n in range(65):
        for x, p in ((0.3, -0.2), (-1.1, 0.7)):
            value = wigner_from_wavefunction(params, n, x, p)
            rho = math.hypot(params.omega * (x + params.shift), p / params.m)
            exact = float(wigner_kernel_exact(n, rho, params.m, params.omega, params.hbar))
            assert abs(value - exact) <= 1e-12, (n, x, p, value, exact)


@pytest.mark.parametrize("n", [0, 5, 64])
def test_transform_is_right_within_its_estimate_or_raises_out_to_p_200(n):
    # the aliasing scan, coarse: on the first mesh the transform was wrong from
    # p ~ 36 at x = 1.3 with an estimate below TOL, and read 0.04 at (0, 100)
    W = stationary_field(NATURAL_UNITS, n)
    for x in (0.0, 1.3):
        for p in map(float, range(201)):
            try:
                value, est = wigner_from_wavefunction(NATURAL_UNITS, n, x, p, return_error=True)
            except AccuracyError as exc:
                assert p > 150.0 and re.search(rf"p = {p!r} needs \d+ panels", str(exc))
                continue
            assert abs(value - W(x, p)) <= max(est, TOL), (x, p, value, est)


def test_transform_refuses_a_momentum_its_finest_mesh_would_alias():
    with pytest.raises(AccuracyError, match=r"p = 200.0 needs 8192 panels .* more than 4096"):
        wigner_from_wavefunction(NATURAL_UNITS, 0, 1.3, [0.5, 200.0])


def test_stationary_field_ignores_time():
    W = stationary_field(NATURAL_UNITS, 3)
    assert W(0.4, -0.2, 0.0) == W(0.4, -0.2, 123.4)


def test_p_derivative_matches_numerical_differentiation():
    W = stationary_field(NATURAL_UNITS, 2)
    x, p = 0.6, -0.35
    assert W.p_derivative(0, x, p) == pytest.approx(W(x, p, 0.0), rel=1e-13)
    h = 1e-3
    for order, stencil in (
        (1, lambda f: (f(p + h) - f(p - h)) / (2 * h)),
        (2, lambda f: (f(p + h) - 2 * f(p) + f(p - h)) / h**2),
        (3, lambda f: (f(p + 2*h) - 2*f(p + h) + 2*f(p - h) - f(p - 2*h)) / (2 * h**3)),
    ):
        est = stencil(lambda q: W(x, q, 0.0))
        assert W.p_derivative(order, x, p) == pytest.approx(est, rel=1e-4, abs=1e-8)


def test_p_derivative_general_params():
    W = stationary_field(GENERAL, 1)
    x, p = 0.3, 0.2
    h = 1e-3
    est = (W(x, p + h, 0.0) - W(x, p - h, 0.0)) / (2 * h)
    assert W.p_derivative(1, x, p) == pytest.approx(est, rel=1e-5)


@pytest.mark.parametrize("params", [NATURAL_UNITS, GENERAL], ids=["natural", "general"])
def test_p_derivative_is_zero_where_the_gaussian_underflows(params, recwarn):
    W = stationary_field(params, 3)
    for big in (1e155, 1e200, 1e300):
        for x, p in ((big, 0.0), (0.0, big), (-big, -big), (0.3, -big), (-big, 0.4)):
            for order in range(4):
                assert W.p_derivative(order, x, p) == 0.0
    assert len(recwarn) == 0


@pytest.mark.parametrize("params", [NATURAL_UNITS, GENERAL, SCALED],
                         ids=["natural", "general", "scaled"])
def test_p_derivative_has_the_bits_of_the_polynomial_class_form(params):
    # the coefficient-array algebra must round as numpy.polynomial.Polynomial
    # does, signed zeros included, across the Gaussian's underflow at |p| ~ 27
    points = [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (0.3, -0.7), (-1.1, 2.5), (2.0, 0.4),
              (-4.0, 6.0), (0.5, -27.0), (0.2, 27.5), (30.0, 1.0), (1e3, 0.0), (0.0, 1e150)]
    for n in range(65):
        W = stationary_field(params, n)
        for order in range(5):
            for x, p in points:
                got = W.p_derivative(order, x, p)
                want = p_derivative_polynomial(W, order, x, p)
                assert struct.pack("<d", got) == struct.pack("<d", want), (n, order, x, p)


@pytest.mark.parametrize("n, first", [(0, 263), (2, 259), (5, 255)])
def test_p_derivative_past_the_doubles_raises_a_data_error(n, first):
    # the coefficients of q overflow first at these orders at (0.3, 0.2)
    W = stationary_field(NATURAL_UNITS, n)
    assert math.isfinite(W.p_derivative(first - 1, 0.3, 0.2))
    for order in (first, first + 40):
        with pytest.raises(DataError, match=rf"^d\^{order}W/dp\^{order} at \(x, p\) = "
                                            rf"\(0\.3, 0\.2\) is nan, not a finite double$"):
            W.p_derivative(order, 0.3, 0.2)


def test_nan_coordinate_raises_a_data_error_naming_it():
    P = NATURAL_UNITS
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    fields = (stationary_field(P, 2), standing_wave_field(P, 2, spec),
              extended_field(P, 2, running_wave_profile(A=0.4, C=1.0, kappa=2)))
    batch = np.array([0.5, math.nan])
    for W in fields:
        with pytest.raises(DataError, match="^coordinate x is NaN$"):
            W(math.nan, 0.0)
        with pytest.raises(DataError, match="^coordinate p is NaN$"):
            W(np.zeros(2), batch, 0.3)
    for f, name in ((position_density, "x"), (momentum_density, "p"), (wavefunction, "x"),
                    (radial_kernel, "rho")):
        for value in (math.nan, batch):
            with pytest.raises(DataError, match=f"^coordinate {name} is NaN$"):
                f(P, 4, value)
    for f in (polar_from_xy, energy_xy):
        with pytest.raises(DataError, match="coordinate x"):
            f(P, batch, 0.0)
        with pytest.raises(DataError, match="coordinate p"):
            f(P, 0.0, batch)
    with pytest.raises(DataError, match="coordinate x"):
        fields[0].p_derivative(1, math.nan, 0.0)
    with pytest.raises(DataError, match="coordinate p"):
        fields[0].p_derivative(1, 0.0, math.nan)


def test_state_index_validation():
    with pytest.raises(ValueError):
        stationary_field(NATURAL_UNITS, 65)
    with pytest.raises(ValueError):
        wigner_stationary(NATURAL_UNITS, -1, 0, 0)
