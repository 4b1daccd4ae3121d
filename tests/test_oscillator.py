import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phasewave import (NATURAL_UNITS, OscillatorParams, energy_xy, polar_from_xy,
                       xy_from_polar)

finite_coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
params_strategy = st.builds(
    OscillatorParams,
    m=st.floats(min_value=0.5, max_value=2.0),
    omega=st.floats(min_value=0.5, max_value=2.0),
    hbar=st.floats(min_value=0.5, max_value=2.0),
    alpha=st.floats(min_value=-5.0, max_value=5.0),
)


def test_shift_examples():
    assert NATURAL_UNITS.shift == 0.0
    assert OscillatorParams(alpha=2.0).shift == 2.0
    assert OscillatorParams(m=2.0, omega=3.0, alpha=9.0).shift == pytest.approx(0.5, rel=1e-15)
    assert OscillatorParams(m=4.0, omega=4.0, alpha=-16.0).shift == -0.25


def test_to_polar_examples():
    assert polar_from_xy(NATURAL_UNITS, 1.0, 0.0) == (1.0, 0.0)
    rho, phi = polar_from_xy(NATURAL_UNITS, 0.0, 2.0)
    assert rho == 2.0 and phi == pytest.approx(math.pi / 2, rel=1e-15)
    assert polar_from_xy(NATURAL_UNITS, -1.0, 0.0) == (1.0, math.pi)


def test_to_polar_origin_convention():
    assert polar_from_xy(NATURAL_UNITS, 0.0, 0.0) == (0.0, 0.0)


def test_from_polar_examples():
    assert xy_from_polar(NATURAL_UNITS, 0.0, 2.3) == (0.0, 0.0)
    x, p = xy_from_polar(NATURAL_UNITS, 1.0, math.pi / 2)
    assert abs(x) < 1e-15 and p == pytest.approx(1.0, rel=1e-15)
    x, p = xy_from_polar(OscillatorParams(m=1.0, omega=2.0, alpha=4.0), 2.0, math.pi)
    assert x == pytest.approx(-2.0, rel=1e-15)
    assert abs(p) < 1e-15


def test_energy_examples():
    assert energy_xy(NATURAL_UNITS, 0.0, 0.0) == 0.0
    assert energy_xy(NATURAL_UNITS, 1.0, 0.0) == 0.5
    assert energy_xy(NATURAL_UNITS, 3.0, 4.0) == 12.5


@given(params_strategy, finite_coord, finite_coord)
def test_round_trip(params, x, p):
    bx, bp = xy_from_polar(params, *polar_from_xy(params, x, p))
    scale = abs(x) + abs(p) + abs(params.shift) + 1.0
    assert abs(bx - x) <= 1e-12 * scale
    assert abs(bp - p) <= 1e-12 * scale


def test_round_trip_thousand_seeded_points():
    rng = np.random.default_rng(23)
    for alpha in (0.0, 1.9, -3.3):
        params = OscillatorParams(m=1.4, omega=0.8, hbar=1.1, alpha=alpha)
        xs = rng.uniform(-10.0, 10.0, 1000)
        ps = rng.uniform(-10.0, 10.0, 1000)
        bx, bp = xy_from_polar(params, *polar_from_xy(params, xs, ps))
        scale = np.abs(xs) + np.abs(ps) + abs(params.shift) + 1.0
        assert np.all(np.abs(bx - xs) <= 1e-12 * scale)
        assert np.all(np.abs(bp - ps) <= 1e-12 * scale)


@given(params_strategy, finite_coord, finite_coord)
def test_energy_radius_consistency(params, x, p):
    rho, _ = polar_from_xy(params, x, p)
    expected = params.m * rho**2 / (2.0 * params.hbar * params.omega)
    assert energy_xy(params, x, p) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_angle_branch_by_sign_of_xbar():
    rng = np.random.default_rng(7)
    for alpha in (0.0, 1.7, -2.4):
        params = OscillatorParams(alpha=alpha)
        for _ in range(200):
            xb = rng.uniform(0.05, 4.0) * rng.choice([-1.0, 1.0])
            p = rng.uniform(-4.0, 4.0)
            _, phi = polar_from_xy(params, xb - params.shift, p)
            if xb < 0:
                assert math.pi / 2 < phi < 3 * math.pi / 2
            else:
                assert phi < math.pi / 2 or phi > 3 * math.pi / 2


def test_params_validation():
    for bad in ({"m": 0.0}, {"omega": -1.0}, {"hbar": float("nan")},
                {"alpha": float("inf")}, {"m": True}, {"omega": True}, {"hbar": True},
                {"alpha": False}):
        with pytest.raises(ValueError):
            OscillatorParams(**bad)

