"""The kernels against the oracles' temporary-per-step forms, and 0-d points against arrays, bit for bit."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phasewave
from phasewave import (NATURAL_UNITS, ExtendedWigner, OscillatorParams, StandingWaveSpec,
                       StandingWaveWigner, StationaryWigner, extended_field, hermite, laguerre,
                       run_suite, running_wave_profile, standing_wave_field, stationary_field)
from phasewave.oscillator import energy_xy, polar_from_xy

from oracles import (energy_xy_whole_array, hermite_whole_array, laguerre_whole_array,
                     polar_from_xy_whole_array)

#: Flat sizes; the "grid" layout is 21 lines of 2049 nodes, four times the
#: nodes of the suite's 21x513 marginal lines.
SIZES = (0, 1, 16383, 16385, 49159)
PARAMS = (NATURAL_UNITS, OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9))


def _same(ours, oracle):
    assert type(ours) is type(oracle)
    assert np.shape(ours) == np.shape(oracle)
    assert np.asarray(ours).tobytes() == np.asarray(oracle).tobytes()


def _special_points(params):
    """Signed zeros, subnormals, the origin, and (1, -1e-300), whose angle rounds up to 2pi."""
    origin = -params.shift
    return [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (5e-324, -5e-324), (-5e-324, 5e-324),
            (1.0, -1e-300), (1.0, -0.0), (-1.0, -0.0), (-1.0, 0.0), (origin, 0.0),
            (origin, -0.0)]


def _coords(params, size, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-8.0, 8.0, size)
    p = rng.uniform(-8.0, 8.0, size)
    special = _special_points(params)
    where = rng.choice(size, min(size, len(special)), replace=False)
    for i, (a, b) in zip(where, special):
        x[i], p[i] = a, b
    return x, p


def _inputs(params, size, seed, layout):
    x, p = _coords(params, size, seed)
    if layout == "flat":
        return x, p
    if layout == "grid":
        gx, gp = _coords(params, 2049, seed)
        return gx[:21, None], gp[None, :]
    if layout == "scalar-x":
        return float(x[0]) if size else 0.25, p
    if layout == "scalar-p":
        return x, float(p[0]) if size else -0.5
    a, b = _special_points(params)[seed % 11]
    return [(a, b), (np.float64(a), np.float64(b)), (np.asarray(a), np.asarray(b))][seed % 3]


def _check_kernels(params, n, x, p):
    _same(energy_xy(params, x, p), energy_xy_whole_array(params, x, p))
    for ours, oracle in zip(polar_from_xy(params, x, p), polar_from_xy_whole_array(params, x, p)):
        _same(ours, oracle)
    eps = energy_xy_whole_array(params, x, p)
    for arg in (4.0 * eps, 6.0 * np.asarray(x, dtype=float)):
        _same(laguerre(n, arg), laguerre_whole_array(n, arg))
        _same(hermite(n, arg / 5.0), hermite_whole_array(n, arg / 5.0))


@given(st.sampled_from(SIZES), st.integers(0, 64), st.integers(0, 2**32 - 1),
       st.sampled_from(PARAMS),
       st.sampled_from(("flat", "grid", "scalar-x", "scalar-p", "0-d")))
def test_kernels_match_whole_array_bit_for_bit(size, n, seed, params, layout):
    x, p = _inputs(params, size, seed, layout)
    _check_kernels(params, n, x, p)


@pytest.mark.parametrize("params", PARAMS, ids=["natural", "general"])
def test_every_order_matches_whole_array(params):
    x, p = _coords(params, 16385, 20200828)
    for n in range(65):
        _check_kernels(params, n, x, p)


def _tie_points():
    """Odd m in [2**26, 2**27) and points (m / 2**26, p): each x*x is an exact tie between two doubles."""
    rng = np.random.default_rng(7)
    m = rng.integers(2**26, 2**27, 200) | 1
    return m, m / 2**26, rng.uniform(-3.0, 3.0, m.size)


def test_scalar_points_match_whole_array():
    # numpy's scalar power rounds about a quarter of the ties unlike x*x, so
    # a 0-d x must square by the product, as an array does
    m, xs, ps = _tie_points()
    eps = energy_xy(NATURAL_UNITS, xs, ps)
    for i, (x, p) in enumerate(zip(xs.tolist(), ps.tolist())):
        _check_kernels(NATURAL_UNITS, int(m[i]) % 65, x, p)
        _same(energy_xy(NATURAL_UNITS, x, p), eps[i])


def _fields(params):
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    return (stationary_field(params, 5), standing_wave_field(params, 5, spec),
            extended_field(params, 5, running_wave_profile(A=0.4, C=1.0, kappa=2)))


@pytest.mark.parametrize("params", PARAMS, ids=["natural", "general"])
def test_fields_give_a_0d_point_its_bits_inside_an_array(params):
    _, tx, tp = _tie_points()
    x, p = _coords(params, 300, 20201018)
    x, p = np.concatenate([tx, x]), np.concatenate([tp, p])
    for W in _fields(params) + (lambda x, p, t: energy_xy(params, x, p),):
        whole = W(x, p, 0.3)
        for i, (a, b) in enumerate(zip(x.tolist(), p.tolist())):
            point = W(a, b, 0.3)
            assert np.shape(point) == ()
            assert np.asarray(point).tobytes() == whole[i].tobytes()


def test_suite_evaluates_no_field_at_a_0d_point(monkeypatch):
    scalar_calls = []
    for cls in (StationaryWigner, StandingWaveWigner, ExtendedWigner):
        def counted(self, x, p, t=0.0, _call=cls.__call__):
            if np.ndim(x) == 0 and np.ndim(p) == 0:
                scalar_calls.append(type(self).__name__)
            return _call(self, x, p, t)
        monkeypatch.setattr(cls, "__call__", counted)
    assert run_suite().passed
    assert scalar_calls == []


def test_concurrent_evaluations_match_serial():
    W = standing_wave_field(NATURAL_UNITS, 5, StandingWaveSpec(ell=3, A=2.0, C=5.0))
    x, p = np.meshgrid(np.linspace(-5.0, 5.0, 512), np.linspace(-5.0, 5.0, 512))
    arg = 4.0 * energy_xy(NATURAL_UNITS, x, p)
    start = threading.Barrier(4, timeout=60)

    def work():
        start.wait()
        return W(x, p, 0.3).tobytes(), laguerre(64, arg).tobytes()

    serial = W(x, p, 0.3).tobytes(), laguerre(64, arg).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(work) for _ in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


def _report():
    doc = run_suite().to_dict()
    for check in doc["checks"]:
        del check["runtime_s"]
    return doc


def test_suite_report_is_unchanged_with_whole_array_kernels(monkeypatch):
    ours = _report()
    swaps = {id(laguerre): laguerre_whole_array, id(hermite): hermite_whole_array,
             id(polar_from_xy): polar_from_xy_whole_array,
             id(energy_xy): energy_xy_whole_array}
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "phasewave" or name.startswith("phasewave."):
            for key, value in list(vars(module).items()):
                if id(value) in swaps:
                    monkeypatch.setattr(module, key, swaps[id(value)])
                    patched += 1
    assert phasewave.wigner.laguerre is laguerre_whole_array
    assert phasewave.extended.polar_from_xy is polar_from_xy_whole_array
    assert patched >= 8
    assert _report() == ours
