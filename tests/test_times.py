"""Arrays of times through the field classes and the marginals.

Every slice of a batched call must have the bits of the call with that
time alone, for fields that use t and for fields that ignore it.
"""

import math
import warnings

import numpy as np
import pytest

from phasewave import (NATURAL_UNITS, DataError, OscillatorParams, PhasePoint,
                       PolynomialPotential, StandingWaveSpec, extended_field, marginal_over_p,
                       marginal_over_x, moyal_rhs, propagate_exact, running_wave_profile,
                       standing_wave_field, stationary_field)
from phasewave import quadrature

P = NATURAL_UNITS
GENERAL = OscillatorParams(m=2.0, omega=0.5, hbar=1.3, alpha=0.7)
UNITS = pytest.mark.parametrize("params", [P, GENERAL], ids=["natural", "general"])
TIMES = np.array([0.0, 0.137, 0.29, 1.9])
SPEC = StandingWaveSpec(ell=3, A=2.0, C=5.0)


def _fields(params):
    return {
        "stationary": stationary_field(params, 3),
        "standing": standing_wave_field(params, 5, SPEC),
        "extended": extended_field(params, 2, StandingWaveSpec(ell=2, A=1.0, C=2.0).to_profile()),
        "running": extended_field(params, 1, running_wave_profile(A=0.4, C=1.0, kappa=2)),
        "rotation": propagate_exact(standing_wave_field(params, 2, SPEC), params, 0.4),
        "bare": lambda x, p, t=0.0: stationary_field(params, 2)(x, p),
    }


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@UNITS
def test_field_calls_over_an_array_of_times_keep_each_times_bits(params):
    x, p = np.meshgrid(np.linspace(-2.5, 2.7, 9), np.linspace(-2.1, 2.3, 7))
    for name, W in _fields(params).items():
        batch = np.broadcast_to(W(x, p, TIMES[:, None, None]), (len(TIMES),) + x.shape)
        for row, t in zip(batch, TIMES):
            assert _bits(row) == _bits(W(x, p, float(t))), (name, t)
        if hasattr(W, "polar_factors"):
            rho, phi = np.linspace(0.1, 3.0, 6), np.linspace(0.0, 6.0, 11)
            radial, angular = W.polar_factors(rho, phi, TIMES[:, None])
            for row, t in zip(np.broadcast_to(angular, (len(TIMES),) + phi.shape), TIMES):
                alone = W.polar_factors(rho, phi, float(t))
                assert _bits(radial) == _bits(alone[0]), (name, t)
                assert _bits(row) == _bits(np.broadcast_to(alone[1], phi.shape)), (name, t)


@pytest.mark.parametrize("marginal", [marginal_over_p, marginal_over_x])
@UNITS
def test_batched_times_equal_per_time_marginals_bitwise(marginal, params):
    lines = np.linspace(-2.9, 3.1, 6)  # no line crosses the origin, where a rotated wave jumps
    for name, W in _fields(params).items():
        if name == "running":
            continue  # its lines near 0 refine; see the next test
        values, ests = marginal(W, params, lines, TIMES[:, None], return_error=True)
        assert values.shape == ests.shape == (len(TIMES), len(lines))
        for t, v_row, e_row in zip(TIMES, values, ests):
            alone = marginal(W, params, lines, float(t), return_error=True)
            assert (_bits(v_row), _bits(e_row)) == (_bits(alone[0]), _bits(alone[1])), (name, t)


def test_a_batch_whose_running_wave_lines_refine_keeps_the_scalar_bits(monkeypatch):
    # the running wave's lines within |x| < 0.5 take a midpoint refinement
    W = _fields(P)["running"]
    xs = np.array([-2.1, -0.3, 0.15, 0.3, 1.8])
    times = TIMES[:, None]
    calls = []
    rule = quadrature._line_integral

    def counted(f, *args):
        def g(nodes):
            calls.append(nodes.size)
            return f(nodes)
        return rule(g, *args)

    monkeypatch.setattr(quadrature, "_line_integral", counted)
    values, ests = marginal_over_p(W, P, xs, times, return_error=True)
    monkeypatch.undo()
    assert len(calls) > 1
    for t, v_row, e_row in zip(TIMES, values, ests):
        for x, value, est in zip(xs, v_row, e_row):
            alone = marginal_over_p(W, P, float(x), float(t), return_error=True)
            assert (_bits(value), _bits(est)) == (_bits(alone[0]), _bits(alone[1])), (x, t)


@pytest.mark.parametrize("x_shape, t_shape", [((), ()), ((), (3,)), ((4,), ()),
                                              ((4, 1), (3,)), ((2, 1, 4), (3, 1)),
                                              ((1,), (2, 3))])
def test_marginal_shapes_follow_the_broadcast_of_positions_and_times(x_shape, t_shape):
    x = np.full(x_shape, 0.4) if x_shape else 0.4
    t = np.full(t_shape, 0.3) if t_shape else 0.3
    expected = np.broadcast(x, t).shape
    for name, W in _fields(P).items():
        if name == "running":
            continue
        for marginal in (marginal_over_p, marginal_over_x):
            value, est = marginal(W, P, x, t, return_error=True)
            assert np.shape(value) == np.shape(est) == expected, (name, x_shape, t_shape)
            if not expected:
                assert type(value) is float and type(est) is float
            alone = marginal(W, P, 0.4, 0.3)
            assert np.all(np.asarray(value) == alone), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_of_an_array_of_times_is_refused(bad):
    times = np.array([0.0, 0.2, bad])
    fields = {k: v for k, v in _fields(P).items() if k not in ("rotation", "bare")}
    rho, phi = np.array([0.5, 1.0]), np.array([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for W in fields.values():
            with pytest.raises(DataError, match=f"t must be finite, got {bad} in an array"):
                W(0.3, 0.2, times)
            with pytest.raises(DataError, match="t must be finite"):
                W.polar_factors(rho, phi, times[:, None])
            for marginal in (marginal_over_p, marginal_over_x):
                with pytest.raises(DataError, match="t must be finite"):
                    marginal(W, P, np.array([0.3, 0.5]), times[:, None])


def test_a_bool_array_of_times_is_refused():
    times = np.array([False, True])
    for name, W in _fields(P).items():
        if name in ("rotation", "bare"):
            continue
        with pytest.raises(DataError, match="t must be finite, got a bool array"):
            W(0.3, 0.2, times)
        with pytest.raises(DataError, match="t must be finite, got a bool array"):
            W.polar_factors(np.array([0.5]), np.array([1.0]), times[:, None])
        with pytest.raises(DataError, match="t must be finite, got a bool array"):
            marginal_over_p(W, P, 0.3, times)


def test_an_entry_whose_wave_phase_overflows_is_named():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for W in (_fields(P)["standing"], _fields(P)["extended"]):
            with pytest.raises(DataError, match=r"t = 1e\+308 takes the wave phase"):
                W(0.3, 0.2, np.array([0.0, 1e308]))


def test_propagate_exact_keeps_one_time():
    # a rotation turns by one angle
    with pytest.raises(TypeError):
        propagate_exact(stationary_field(P, 0), P, np.array([0.1, 0.2]))


def test_the_one_time_callers_refuse_a_one_entry_array():
    one = np.array([0.3])
    with pytest.raises(TypeError, match=r"t must be one number, got an array of shape \(1,\)"):
        propagate_exact(stationary_field(P, 0), P, one)
    with pytest.raises(TypeError, match="t must be one number"):
        moyal_rhs(PolynomialPotential((0, 0, 0, 1.0)), stationary_field(P, 2),
                  PhasePoint(0.3, 0.2), 1.0, t=one)
    for x, p in ((one, 0.2), (0.3, one)):
        with pytest.raises(TypeError, match="must be one number"):
            PhasePoint(x, p)


def test_an_array_of_times_that_is_not_real_is_refused():
    fields = _fields(P)
    for times in (np.array([0.1, 0.2 + 1e-3j]), np.array(["0.1", "0.2"])):
        for name in ("stationary", "standing", "extended"):
            with pytest.raises(TypeError, match="t must be real"):
                fields[name](0.3, 0.2, times)
            with pytest.raises(TypeError, match="t must be real"):
                fields[name].polar_factors(np.array([0.5]), np.array([1.0]), times[:, None])
        with pytest.raises(TypeError, match="t must be real"):
            SPEC.to_profile().bracket(1.0, times, P.omega)
