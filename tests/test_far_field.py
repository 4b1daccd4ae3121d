"""Fields and densities at large finite arguments: finite, no warning, and 0 where the Gaussian underflows.

Past the point where exp(...) underflows, the recurrences can overflow; the
value there is the zero the product has wherever the polynomial is finite.
Every value that the unguarded formula gives finitely keeps its bits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasewave import (NATURAL_UNITS, OscillatorParams, StandingWaveSpec, extended_field,
                       momentum_density, position_density, propagate_exact, radial_kernel,
                       running_wave_profile, standing_wave_field, stationary_field,
                       wavefunction, xy_from_polar)
from phasewave.errors import DataError
from phasewave.special import log_weight

from oracles import core_scales, energy_xy_whole_array, hermite_whole_array, laguerre_whole_array

PARAMS = (NATURAL_UNITS, OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9))
SPEC = StandingWaveSpec(ell=3, A=2.0, C=5.0)
PROFILES = (running_wave_profile(A=0.4, C=1.0, kappa=2), SPEC.to_profile())
DENSITIES = (position_density, momentum_density, wavefunction)

#: Coordinates up to 1e300 in magnitude, and near the origin, where the Gaussian lives.
coord = st.one_of(st.floats(-1e300, 1e300, allow_nan=False), st.floats(-60.0, 60.0))


def _fields(params, n):
    return (stationary_field(params, n), standing_wave_field(params, n, SPEC),
            *(extended_field(params, n, profile) for profile in PROFILES))


def _finite_and_pointwise(f, args, whole):
    """``whole`` is finite, and each point alone gives its element's bits."""
    assert np.all(np.isfinite(whole))
    for i, point in enumerate(zip(*args)):
        assert np.asarray(f(*point)).tobytes() == whole[i].tobytes()


@given(st.integers(0, 64), st.sampled_from(PARAMS),
       st.lists(st.tuples(coord, coord), min_size=1, max_size=6), st.floats(-10.0, 10.0))
def test_fields_are_finite_at_large_finite_points(n, params, points, t):
    x, p = (np.array(c) for c in zip(*points))
    for W in _fields(params, n):
        _finite_and_pointwise(lambda a, b: W(a, b, t), (x, p), W(x, p, t))


@given(st.integers(0, 64), st.sampled_from(PARAMS), st.lists(coord, min_size=1, max_size=6))
def test_densities_are_finite_at_large_finite_points(n, params, xs):
    xs = np.array(xs)
    for density in DENSITIES:
        _finite_and_pointwise(lambda a: density(params, n, a), (xs,), density(params, n, xs))


def test_named_far_points_give_zero_for_every_order():
    P = NATURAL_UNITS
    for n in range(65):
        assert stationary_field(P, n)(1e3, 0.0) == 0.0
        assert stationary_field(P, n)(1e160, 0.0) == 0.0
        assert standing_wave_field(P, n, SPEC)(1e3, 0.0, 0.3) == 0.0
        assert radial_kernel(P, n, 1e3) == 0.0
        for density in DENSITIES:
            assert density(P, n, 1e5) == 0.0
            assert density(P, n, 1e300) == 0.0


def test_infinite_coordinates_give_the_limit_zero_and_nan_is_rejected():
    P = NATURAL_UNITS
    for n in range(65):
        for x in (math.inf, -math.inf):
            assert stationary_field(P, n)(x, 0.0) == 0.0
            assert stationary_field(P, n)(0.0, x) == 0.0
            for t in (0.0, 0.3):  # at t = 0 the ray of (inf, 0) turns onto itself, sin(phi) = 0
                for W0 in (stationary_field(P, n), standing_wave_field(P, n, SPEC)):
                    assert propagate_exact(W0, P, t)(x, 0.0) == 0.0
                    assert propagate_exact(W0, P, t)(0.0, x) == 0.0
            assert radial_kernel(P, n, x) == 0.0
            for density in DENSITIES:
                assert density(P, n, x) == 0.0
        with pytest.raises(DataError, match="coordinate x is NaN"):
            stationary_field(P, n)(math.nan, 0.0)
        with pytest.raises(DataError, match="coordinate x is NaN"):
            position_density(P, n, math.nan)


@pytest.mark.parametrize("params", [OscillatorParams(m=4.0),
                                    OscillatorParams(m=4.0, omega=2.0, hbar=0.5, alpha=0.3)])
def test_a_radius_past_the_doubles_in_widths_maps_to_its_x_and_p(params):
    # rho / rho_scale overflows here, though x and p are doubles; a warning fails the test
    rho, phi = np.array([1e308, 1.7e308, 0.9, math.inf]), np.array([0.3, 2.9, 0.3, 0.0])
    x, p = xy_from_polar(params, rho, phi)
    for i in range(2):  # rho (sigma / rho_scale) trig - shift in exact rationals, rounded once
        r = Fraction(rho[i]) / Fraction(params.rho_scale)
        want_x = float(r * Fraction(params.sigma_x) * Fraction(math.cos(phi[i])) -
                       Fraction(params.shift))
        want_p = float(r * Fraction(params.sigma_p) * Fraction(math.sin(phi[i])))
        assert x[i] == pytest.approx(want_x, rel=1e-15) and p[i] == pytest.approx(want_p, rel=1e-15)
    # an ordinary radius keeps the bits of a call of its own, and an infinite one its ray
    assert (x[2], p[2]) == xy_from_polar(params, 0.9, 0.3)
    assert (x[3], p[3]) == (math.inf, 0.0)


def _magnitudes():
    """Signed magnitudes across the underflow and the polynomials' overflow, 1e-3 to 1e300."""
    mag = np.concatenate([np.linspace(0.0, 60.0, 601), np.logspace(-3, 300, 607)])
    return np.concatenate([mag, -mag])


def test_stationary_field_keeps_every_finite_value_of_the_unguarded_formula():
    x = _magnitudes()
    for params in PARAMS:
        for p in (0.0, 1.5, -4e3):
            with np.errstate(all="ignore"):
                eps = energy_xy_whole_array(params, x, p)
                for n in range(65):
                    sign = -1.0 if n % 2 else 1.0
                    plain = sign / (math.pi * params.hbar) * np.exp(-2.0 * eps) \
                        * laguerre_whole_array(n, 4.0 * eps)
                    ours = stationary_field(params, n)(x, p)
                    finite = np.isfinite(plain)
                    assert ours[finite].tobytes() == plain[finite].tobytes()
                    assert np.all(ours[~finite] == 0.0)


def test_wavefunction_keeps_every_finite_value_of_the_unguarded_formula():
    x = _magnitudes()
    for params in PARAMS:
        c = core_scales(params)
        xi = (x + c.shift) / c.sigma_x
        norm = (1.0 / math.pi) ** 0.25 / math.sqrt(c.sigma_x)
        for n in range(65):
            with np.errstate(all="ignore"):
                plain = norm * (hermite_whole_array(n, xi) * np.exp(0.5 * (log_weight(n) - xi**2)))
            ours = wavefunction(params, n, x)
            finite = np.isfinite(plain)
            assert ours[finite].tobytes() == plain[finite].tobytes()  # signed zeros included
            assert np.all(ours[~finite] == 0.0)
