import math
import re
import warnings

import numpy as np
import pytest

from phasewave import (NATURAL_UNITS, BlowupError, ConfigurationError, DataError, Field2D,
                       GridSpec, OscillatorParams, PolynomialPotential, evolve_fd,
                       moyal_rhs, poly_derivative, polar_from_xy, propagate_exact, radial_kernel,
                       sample_field, stationary_field, transport_residual,
                       wave_residual, StandingWaveSpec, standing_wave_field, xy_from_polar)
from phasewave.evolution import _fd_weights, _max_deviation, _ring_blocks, _sampled_blocks
from phasewave.verify import check_positivity_edge

from oracles import evolve_fd_whole_grid, max_deviation_whole_grid, upwind_roll_loop

P = NATURAL_UNITS


def kernel_times_sin(kappa, amplitude=1.0):
    def W0(x, p):
        rho, phi = polar_from_xy(P, x, p)
        return amplitude * radial_kernel(P, 0, rho) * np.sin(kappa * phi)
    return W0


# ---------------------------------------------------------------- grid types

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(rho_max=4.0, n_rho=8, n_phi=1)
    with pytest.raises(ValueError):
        GridSpec(rho_max=0.0, n_rho=8, n_phi=32)
    with pytest.raises(ValueError):
        GridSpec(rho_max=4.0, n_rho=8, n_phi=32, dt=-0.1)
    # a bool is neither a length nor a time step
    with pytest.raises(ValueError, match="rho_max must be finite and positive"):
        GridSpec(rho_max=True, n_rho=8, n_phi=32)
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        GridSpec(rho_max=4.0, n_rho=8, n_phi=32, dt=True)
    # node counts are integers, and a bool is not one
    for counts in ({"n_rho": 10.5, "n_phi": 16}, {"n_rho": 10, "n_phi": 16.5},
                   {"n_rho": 10.0, "n_phi": 16}, {"n_rho": True, "n_phi": 16},
                   {"n_rho": 8, "n_phi": True}, {"n_rho": "8", "n_phi": 16}):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(rho_max=4.0, **counts)
    grid = GridSpec(rho_max=4.0, n_rho=np.int64(10), n_phi=np.int32(16))
    assert grid.phi_nodes().shape == (16,)


def test_evolve_needs_enough_angular_nodes():
    # sampling allows small grids; the time stepper does not
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=8, dt=0.01)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    with pytest.raises(ConfigurationError, match="n_phi"):
        evolve_fd(f0, P, 0.5)


def test_field_validation():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=16)
    with pytest.raises(ValueError):
        Field2D(grid=grid, values=np.zeros((4, 8)), time_tag=0.0)
    bad = np.zeros((4, 16))
    bad[1, 3] = np.inf
    with pytest.raises(ValueError):
        Field2D(grid=grid, values=bad, time_tag=0.0)


def test_grid_nodes_exclude_origin():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=16)
    assert grid.rho_nodes() == pytest.approx([1.0, 2.0, 3.0, 4.0])
    assert grid.phi_nodes()[0] == 0.0
    assert len(grid.phi_nodes()) == 16


# ---------------------------------------------------------- exact propagation

def test_propagate_exact_leaves_stationary_unchanged():
    W = stationary_field(P, 2)
    for t in (0.3, 2.7):
        adv = propagate_exact(W, P, t)
        for x, p in ((0.7, -0.3), (0.0, 1.2)):
            assert adv(x, p) == pytest.approx(W(x, p, 0.0), rel=1e-14)


def test_propagate_exact_shifts_single_chirality_phase():
    kappa = 3
    W0 = kernel_times_sin(kappa)
    t = 0.41
    adv = propagate_exact(lambda x, p, t: W0(x, p), P, t)
    for x, p in ((0.8, 0.5), (-0.4, 1.1)):
        rho, phi = polar_from_xy(P, x, p)
        expected = radial_kernel(P, 0, rho) * math.sin(kappa * phi + kappa * P.omega * t)
        assert float(adv(x, p)) == pytest.approx(float(expected), rel=1e-12, abs=1e-15)


def test_propagate_exact_full_rotation_identity():
    W0 = kernel_times_sin(2)
    adv = propagate_exact(lambda x, p, t: W0(x, p), P, 2.0 * math.pi / P.omega)
    for x, p in ((0.8, 0.5), (-1.4, 0.2)):
        assert float(adv(x, p)) == pytest.approx(float(W0(x, p)), abs=1e-12)


def test_propagate_exact_rotation_is_ring_shift():
    # a bare W0 has no polar_factors; its rotation's angular factor is W0
    # tabulated at the (x, p) image of every turned node
    grid = GridSpec(rho_max=3.0, n_rho=6, n_phi=32)
    W0 = kernel_times_sin(2)
    bare = lambda x, p, t: W0(x, p)
    base = sample_field(bare, grid, 0.0, P)
    k = 5
    t = k * grid.delta_phi / P.omega
    adv = propagate_exact(bare, P, t)
    radial, angular = adv.polar_factors(grid.rho_nodes(), grid.phi_nodes(), t)
    assert np.array_equal(radial, np.ones(grid.n_rho)) and angular.shape == (6, 32)
    rotated = sample_field(adv, grid, t, P)
    assert np.max(np.abs(rotated.values - np.roll(base.values, -k, axis=1))) <= 1e-12


@pytest.mark.parametrize("rho, phi", [(np.array([0.5]), 1.0), (0.5, 1.0),
                                      (0.5, np.array([1.0, 2.0])),
                                      (np.array([0.5, 0.8]), np.array([1.0, 2.0]))])
def test_rotation_polar_factors_take_one_number_as_the_field_classes_do(rho, phi):
    W = stationary_field(P, 1)
    turned = (np.asarray(phi) + P.omega * 0.3) % (2.0 * math.pi)
    rings = np.reshape(rho, np.shape(rho) + (1,) * np.ndim(phi))  # each radius with every angle
    want = W(*xy_from_polar(P, rings, turned))
    for W0 in (W, lambda x, p, t: W(x, p, t)):  # a field class and a bare callable
        radial, angular = propagate_exact(W0, P, 0.3).polar_factors(rho, phi)
        got = np.reshape(radial, np.shape(rings)) * angular
        assert got.shape == np.shape(want)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_rotations_always_have_polar_factors_and_take_fields_of_x_p_t():
    W = standing_wave_field(P, 2, StandingWaveSpec(ell=3, A=2.0, C=5.0))
    bare = lambda x, p, t: W(x, p, t)
    assert hasattr(propagate_exact(W, P, 1.1), "polar_factors")
    assert hasattr(propagate_exact(bare, P, 1.1), "polar_factors")
    x, p = np.array([0.7, -1.2, 0.0]), np.array([0.4, 0.9, -1.5])
    # the (x, p) call is kept, and a trailing time is checked and ignored
    adv = propagate_exact(W, P, 1.1)
    assert np.array_equal(adv(x, p, 7.0), adv(x, p))
    assert np.array_equal(adv(x, p), propagate_exact(bare, P, 1.1)(x, p))
    # a callable of (x, p) alone is not a field
    with pytest.raises(TypeError):
        propagate_exact(lambda x, p: W(x, p), P, 1.1)(x, p)


@pytest.mark.parametrize("n", [0, 5])
def test_rotation_of_field_class_snapshot_is_ring_shift(n):
    grid = GridSpec(rho_max=4.0, n_rho=12, n_phi=96)
    # the standing wave at t = 0.2 is the t = 0 wave of amplitude A cos(2 omega ell 0.2)
    frozen = standing_wave_field(P, n, StandingWaveSpec(ell=3, A=2.0 * math.cos(6 * 0.2), C=5.0))
    base = sample_field(frozen, grid, 0.0, P).values
    for k in (1, 5, 37, 95):
        t = k * grid.delta_phi / P.omega
        rotated = sample_field(propagate_exact(frozen, P, t), grid, t, P).values
        assert np.max(np.abs(rotated - np.roll(base, -k, axis=1))) <= 1e-15


# ------------------------------------------------------------------ fd solver

def test_evolve_requires_dt():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    with pytest.raises(ConfigurationError):
        evolve_fd(f0, P, 1.0)


def test_evolve_rejects_cfl_violation():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=2.0 * 2.0 * math.pi / 32)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    with pytest.raises(ConfigurationError, match="Courant"):
        evolve_fd(f0, P, 1.0)


def test_evolve_rejects_backward_time():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.01)
    f0 = sample_field(stationary_field(P, 0), grid, 1.0, P)
    with pytest.raises(ConfigurationError):
        evolve_fd(f0, P, 0.5)


@pytest.mark.parametrize("t_final", [math.nan, math.inf])
def test_evolve_rejects_nonfinite_time(t_final):
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.01)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    with pytest.raises(DataError, match="finite"):
        evolve_fd(f0, P, t_final)


def test_evolve_refuses_a_bool_time():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.01)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    with pytest.raises(DataError, match="t_final must be finite, got True"):
        evolve_fd(f0, P, True)


def test_propagate_exact_refuses_a_bool_time():
    for W0 in (stationary_field(P, 2), kernel_times_sin(2)):
        with pytest.raises(DataError, match="t must be finite, got True"):
            propagate_exact(W0, P, True)


def test_propagate_exact_refuses_a_time_whose_angle_overflows():
    fast = OscillatorParams(omega=10.0)
    for W0 in (stationary_field(fast, 2), kernel_times_sin(2)):
        with pytest.raises(DataError, match="t = 1e\\+308 takes the wave phase 10.0 \\* t to inf"):
            propagate_exact(W0, fast, 1e308)
    # omega t = 1e308 is finite: the rotation is sampled as usual
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=16)
    rotated = sample_field(propagate_exact(stationary_field(P, 2), P, 1e308), grid, 1e308, P)
    assert np.array_equal(rotated.values, sample_field(stationary_field(P, 2), grid, 0.0, P).values)


def test_evolve_detects_nonfinite_values():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.01)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    f0.values[2, 7] = np.nan  # in-place corruption bypasses construction checks
    with pytest.raises(BlowupError):
        evolve_fd(f0, P, 0.5)


def test_evolve_phi_independent_field_is_exact():
    grid = GridSpec(rho_max=4.0, n_rho=8, n_phi=64, dt=0.5 * 2.0 * math.pi / 64)
    f0 = sample_field(stationary_field(P, 3), grid, 0.0, P)
    f1 = evolve_fd(f0, P, 2.0 * math.pi / P.omega)
    assert np.max(np.abs(f1.values - f0.values)) < 1e-10


def test_evolve_partial_final_step():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.125)
    f0 = sample_field(stationary_field(P, 0), grid, 0.0, P)
    out = evolve_fd(f0, P, 0.3)
    assert out.time_tag == 0.3
    assert out.meta["steps"] == 3  # two whole steps plus one partial


def test_evolve_conserves_ring_sums():
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    grid = GridSpec(rho_max=4.0, n_rho=8, n_phi=64, dt=0.5 * 2.0 * math.pi / 64)
    f0 = sample_field(standing_wave_field(P, 0, spec), grid, 0.0, P)
    f1 = evolve_fd(f0, P, 2.0 * math.pi / P.omega)
    drift = np.max(np.abs(f1.values.sum(axis=1) - f0.values.sum(axis=1)))
    assert drift <= 1e-8
    assert f1.meta["ring_sum_drift"] == drift


def _ring_field(n_phi, courant, time_tag=0.0):
    """Rough random rings on a grid whose time step has the given Courant number."""
    dphi = 2.0 * math.pi / n_phi
    grid = GridSpec(rho_max=3.0, n_rho=3, n_phi=n_phi, dt=courant * dphi / P.omega)
    values = np.random.default_rng(n_phi).uniform(-1.0, 1.0, (3, n_phi))
    return Field2D(grid=grid, values=values, time_tag=time_tag)


@pytest.mark.parametrize("n_phi", [32, 33])
@pytest.mark.parametrize("courant", [0.5, 0.9, 1.0])
@pytest.mark.parametrize("whole, fraction", [(40, 0.0), (40, 0.37), (0, 0.6)])
def test_evolve_matches_roll_loop(n_phi, courant, whole, fraction):
    # even n_phi at c = 0.5 has a Nyquist multiplier of exactly 0
    f0 = _ring_field(n_phi, courant)
    out = evolve_fd(f0, P, (whole + fraction) * f0.grid.dt)
    c = out.meta["courant"]
    expected = upwind_roll_loop(f0.values, c, whole, fraction * c)
    assert out.meta["steps"] == whole + (fraction > 0.0)
    assert np.max(np.abs(out.values - expected)) <= 1e-12


@pytest.mark.parametrize("n_phi", [32, 33])
def test_evolve_to_own_time_tag_is_identity(n_phi):
    f0 = _ring_field(n_phi, 0.5, time_tag=1.25)
    out = evolve_fd(f0, P, 1.25)
    assert out.meta["steps"] == 0
    assert np.array_equal(out.values, f0.values)


def test_evolve_courant_one_is_ring_shift_at_long_times():
    n_phi = 32
    f0 = _ring_field(n_phi, 1.0)
    for steps in (10**6, 10**9, 10**12):
        out = evolve_fd(f0, P, steps * f0.grid.dt)
        assert out.meta["steps"] == steps
        shifted = np.roll(f0.values, -(steps % n_phi), axis=1)
        assert np.max(np.abs(out.values - shifted)) <= 1e-13


@pytest.mark.parametrize("n_phi", [64, 65])
def test_evolve_half_courant_decays_to_ring_means(n_phi):
    f0 = _ring_field(n_phi, 0.5)
    out = evolve_fd(f0, P, 1e7)
    means = f0.values.mean(axis=1, keepdims=True)
    assert np.max(np.abs(out.values - means)) <= 1e-12


def test_evolve_first_order_convergence():
    W0 = kernel_times_sin(2)
    period = 2.0 * math.pi / P.omega
    errors = []
    for n_phi in (128, 256, 512):
        dphi = 2.0 * math.pi / n_phi
        grid = GridSpec(rho_max=4.0, n_rho=8, n_phi=n_phi, dt=0.5 * dphi / P.omega)
        f0 = sample_field(lambda x, p, t: W0(x, p), grid, 0.0, P)
        f1 = evolve_fd(f0, P, period)
        errors.append(float(np.max(np.abs(f1.values - f0.values))))
    for k in range(2):
        order = math.log2(errors[k] / errors[k + 1])
        assert 0.8 <= order <= 1.2


@pytest.mark.parametrize("n_rho, n_phi, courant, steps", [
    (1, 64, 0.5, 40.37),
    (100, 1024, 0.5, 40.37),
    (2, 131072, 0.9, 40.0),
    (100, 1024, 1.0, 10**9 + 7),
    (5, 1024, 0.9, 0.6),
    (100, 1024, 0.5, 0.0),
], ids=["one-ring", "partial-last-block", "ring-longer-than-a-block", "courant-one-shift",
        "one-partial-step", "no-time-elapsed"])
def test_evolve_blocks_equal_the_whole_grid_transform(n_rho, n_phi, courant, steps):
    grid = GridSpec(rho_max=3.0, n_rho=n_rho, n_phi=n_phi, dt=courant * 2.0 * math.pi / n_phi)
    values = np.random.default_rng(n_rho * n_phi).uniform(-1.0, 1.0, (n_rho, n_phi))
    f0 = Field2D(grid=grid, values=values, time_tag=0.25)
    t_final = 0.25 + steps * grid.dt
    out = evolve_fd(f0, P, t_final)
    assert out.meta["courant"] == courant
    assert out.values.tobytes() == evolve_fd_whole_grid(f0, P, t_final).tobytes()


def test_max_deviation_equals_the_whole_grid_maximum():
    # 100 rings of 1024 angles are two blocks, the second partial
    grid = GridSpec(rho_max=4.0, n_rho=100, n_phi=1024, dt=0.5 * 2.0 * math.pi / 1024)
    W = standing_wave_field(P, 5, StandingWaveSpec(ell=3, A=2.0, C=5.0))
    bare = lambda x, p, t: W(x, p, t)
    evolved = evolve_fd(sample_field(W, grid, 0.0, P), P, 1.3)
    # a field class, its rotation, and the rotation of a bare callable, whose
    # angular factor is a grid
    for target in (W, propagate_exact(W, P, 1.3), propagate_exact(bare, P, 1.3)):
        assert _max_deviation(evolved, target, P) == max_deviation_whole_grid(evolved, target, P)


@pytest.mark.parametrize("n_rho", [512, 300], ids=["positivity-grid", "partial-last-block"])
@pytest.mark.parametrize("A", [2.0, 3.0])
def test_block_minimum_is_the_whole_grid_minimum(n_rho, A):
    # 512 angles make blocks of 128 rings, so 300 rings end in a block of 44
    grid = GridSpec(rho_max=4.0, n_rho=n_rho, n_phi=512)
    assert [r.stop - r.start for r in _ring_blocks(grid)][-1] == (128 if n_rho == 512 else 44)
    W = standing_wave_field(P, 0, StandingWaveSpec(ell=3, A=A, C=5.0))
    blocks = [values.copy() for _, values in _sampled_blocks(W, grid, 0.0, P)]
    whole = sample_field(W, grid, 0.0, P).values
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert min(float(b.min()) for b in blocks) == float(whole.min())


def test_positivity_check_holds_one_block(traced_peak):
    # a block of 128 rings is a quarter of one 512 x 512 grid, and its one buffer
    # serves every block
    peak = traced_peak(check_positivity_edge)
    assert peak < 0.6 * 512 * 512 * 8, f"{peak / (512 * 512 * 8):.2f} grids"


def test_max_deviation_names_a_non_finite_target_node():
    grid = GridSpec(rho_max=4.0, n_rho=100, n_phi=1024)
    field = Field2D(grid=grid, values=np.zeros((100, 1024)), time_tag=0.0)
    # infinite past rho^2 = 12 in the upper half plane: first at ring 86, in the second block
    W = lambda x, p, t: np.where((p > 0.0) & (x * x + p * p > 12.0), np.inf, 0.0)
    with pytest.raises(DataError) as sampled:
        sample_field(W, grid, 0.0, P)
    assert "(i=86, j=1)" in str(sampled.value)
    with pytest.raises(DataError, match=re.escape(str(sampled.value))):
        _max_deviation(field, W, P)


# ------------------------------------------------------------------ residuals

def _triplet(W, grid, t_center, dt):
    return [sample_field(W, grid, t_center + k * dt, P) for k in (-1, 0, 1)]


def test_residual_grid_mismatch_rejected():
    g1 = GridSpec(rho_max=4.0, n_rho=4, n_phi=32)
    g2 = GridSpec(rho_max=4.0, n_rho=4, n_phi=64)
    W = stationary_field(P, 0)
    fields = [sample_field(W, g, t, P) for g, t in ((g1, 0.0), (g1, 0.1), (g2, 0.2))]
    with pytest.raises(ConfigurationError):
        wave_residual(fields, P)


def test_residual_nonuniform_times_rejected():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=32)
    W = stationary_field(P, 0)
    fields = [sample_field(W, grid, t, P) for t in (0.0, 0.1, 0.35)]
    with pytest.raises(ConfigurationError):
        transport_residual(fields, P)


def test_residuals_vanish_for_stationary_field():
    # node coordinates pass through cos/sin, so ring values differ in the
    # last bits; dividing by delta_phi^2 leaves residuals at ~1e-14
    grid = GridSpec(rho_max=4.0, n_rho=6, n_phi=32)
    fields = _triplet(stationary_field(P, 2), grid, 0.5, 0.01)
    assert np.max(np.abs(wave_residual(fields, P).values)) <= 1e-12
    assert np.max(np.abs(transport_residual(fields, P).values)) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_residuals_refuse_an_omega_that_takes_them_past_the_doubles():
    grid = GridSpec(rho_max=4.0, n_rho=8, n_phi=32, dt=1e-3)
    W = standing_wave_field(P, 0, StandingWaveSpec(ell=3, A=2.0, C=5.0))
    fields = [sample_field(W, grid, 0.3 + k * 1e-3, P) for k in (-1, 0, 1)]
    # omega^2 W_phiphi overflows at omega = 1e200; (omega dt)^2 underflows at 1e-200
    for omega in (1e200, 1e-200):
        with pytest.raises(DataError, match=re.escape(f"omega = {omega!r} takes the wave_residual")):
            wave_residual(fields, OscillatorParams(omega=omega))
    # omega W_phi overflows at omega = 1e308 on a field of amplitude 1e10
    big = [Field2D(grid, 1e10 * np.sin(6.0 * grid.phi_nodes() + k) * np.ones((8, 1)), 0.3 + k * 1e-3)
           for k in (-1, 0, 1)]
    with pytest.raises(DataError, match="omega = 1e\\+308 takes the transport_residual"):
        transport_residual(big, OscillatorParams(omega=1e308))
    assert np.all(np.isfinite(transport_residual(big, P).values))


def _residual_scan(W, t_center):
    wave_max, transport_max = [], []
    for n_phi in (64, 128, 256):
        dt = 0.5 * (2.0 * math.pi / n_phi) / P.omega
        grid = GridSpec(rho_max=4.0, n_rho=12, n_phi=n_phi)
        fields = _triplet(W, grid, t_center, dt)
        wave_max.append(np.max(np.abs(wave_residual(fields, P).values)))
        transport_max.append(np.max(np.abs(transport_residual(fields, P).values)))
    return wave_max, transport_max


def test_standing_wave_satisfies_wave_equation_only():
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    W = standing_wave_field(P, 0, spec)
    t_c = 0.3 * spec.period(P.omega)
    wave_max, transport_max = _residual_scan(W, t_c)
    assert wave_max[0] / wave_max[1] >= 3.5
    assert wave_max[1] / wave_max[2] >= 3.5
    assert transport_max[2] > 0.1 * transport_max[0]


def test_standing_wave_transport_residual_limit_is_analytic():
    # W_t - omega W_phi = -kern * (2A/C) * Omega * cos(Omega t - kappa phi)
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    W = standing_wave_field(P, 0, spec)
    t_c = 0.3 * spec.period(P.omega)
    n_phi = 512
    dt = 0.25 * (2.0 * math.pi / n_phi) / P.omega
    grid = GridSpec(rho_max=4.0, n_rho=12, n_phi=n_phi)
    res = transport_residual(_triplet(W, grid, t_c, dt), P).values
    rho = grid.rho_nodes()[:, None]
    phi = grid.phi_nodes()[None, :]
    omega_w = spec.omega_wave(P.omega)
    analytic = (-radial_kernel(P, 0, rho) * (2.0 * spec.A / spec.C) * omega_w
                * np.cos(omega_w * t_c - spec.kappa * phi))
    assert np.max(np.abs(res - analytic)) <= 0.05 * np.max(np.abs(analytic))


def test_single_chirality_satisfies_both_equations():
    kappa = 6

    def W(x, p, t):
        rho, phi = polar_from_xy(P, x, p)
        return radial_kernel(P, 0, rho) * (1.0 + 0.5 * np.sin(kappa * (phi + P.omega * t)))

    wave_max, transport_max = _residual_scan(W, 0.21)
    assert wave_max[0] / wave_max[1] >= 3.5 and wave_max[1] / wave_max[2] >= 3.5
    assert transport_max[0] / transport_max[1] >= 3.5
    assert transport_max[1] / transport_max[2] >= 3.5


# ------------------------------------------------------------------ potentials

def test_polynomial_evaluation_and_degree():
    U = PolynomialPotential((1.0, 0.0, 3.0))
    assert U(2.0) == 13.0
    assert U.degree == 2
    assert PolynomialPotential((1.0, 2.0, 0.0)).degree == 1
    assert PolynomialPotential(()).degree == 0


def test_polynomial_degree_cap():
    with pytest.raises(ConfigurationError):
        PolynomialPotential(tuple(range(14)))


def test_derivative_orders_are_non_negative_integers():
    W, U = stationary_field(P, 2), PolynomialPotential((1.0, 2.0, 3.0))
    for bad in (True, False, 2.0, 1.5, -1, "2", None):
        with pytest.raises(ValueError, match=r"derivative order must be an integer in \[0, inf\]"):
            poly_derivative(U, bad)
        with pytest.raises(ValueError, match=r"derivative order must be an integer in \[0, inf\]"):
            W.p_derivative(bad, 0.3, 0.2)
    assert poly_derivative(U, np.int64(1)).coeffs == (2.0, 6.0)
    assert W.p_derivative(np.int64(3), 0.3, 0.2) == W.p_derivative(3, 0.3, 0.2)


def test_poly_derivative_stops_at_the_zero_polynomial():
    # an order-linear loop would not return for 10^100
    U = PolynomialPotential(tuple(float(k + 1) for k in range(13)))
    for order in (13, 14, 10**6, 10**100):
        assert poly_derivative(U, order).coeffs == (0.0,)
    assert poly_derivative(U, 12).coeffs == (13.0 * math.factorial(12),)


def test_poly_derivative_examples():
    assert poly_derivative(PolynomialPotential((0.0, 0.0, 1.0)), 1).coeffs == (0.0, 2.0)
    assert poly_derivative(PolynomialPotential((1.0, 2.0, 3.0)), 3).coeffs == (0.0,)
    d3 = poly_derivative(PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0)), 3)
    assert d3.coeffs == (0.0, 24.0)
    with pytest.raises(ValueError):
        poly_derivative(PolynomialPotential((1.0,)), -1)


# -------------------------------------------------------------------- weights

def test_fd_weights_known_stencils():
    assert _fd_weights(0.0, np.array([-1.0, 0.0, 1.0]), 1) == pytest.approx([-0.5, 0.0, 0.5])
    assert _fd_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2) == pytest.approx([1.0, -2.0, 1.0])
    assert _fd_weights(0.0, np.arange(-2.0, 3.0), 3) == pytest.approx([-0.5, 1.0, 0.0, -1.0, 0.5])


def test_fd_weights_differentiate_exponential():
    a = 0.9
    for order in (1, 3, 5):
        r = (order + 3) // 2
        h = 0.05
        offsets = np.arange(-r, r + 1) * h
        w = _fd_weights(0.0, offsets, order)
        est = float(np.dot(w, np.exp(a * offsets)))
        assert est == pytest.approx(a**order, rel=1e-4)


# ------------------------------------------------------------------ moyal rhs

class _MustNotBeCalled:
    def __call__(self, *args):
        raise AssertionError("field evaluated for a quadratic potential")


def test_moyal_rhs_vanishes_for_quadratic_potentials():
    pts = [(0.3, -0.4), (1.5, 2.0)]
    for coeffs in ((0.0, 0.0, 0.5), (2.0, 1.7, 0.9), (0.0, 3.0)):
        U = PolynomialPotential(coeffs)
        for x, p in pts:
            assert moyal_rhs(U, _MustNotBeCalled(), x, p, hbar=1.0) == 0.0


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_moyal_rhs_cubic_single_term(hbar):
    W = stationary_field(NATURAL_UNITS, 2)
    U = PolynomialPotential((0.0, 0.0, 0.0, 1.0))
    for x, p in ((0.3, -0.4), (1.1, 0.7)):
        closed = -(hbar**2 / 4.0) * W.p_derivative(3, x, p)
        assert moyal_rhs(U, W, x, p, hbar) == pytest.approx(closed, rel=1e-12)
        plain = lambda x, p, t=0.0: W(x, p, t)
        assert moyal_rhs(U, plain, x, p, hbar) == pytest.approx(closed, rel=1e-6, abs=1e-10)


def test_moyal_rhs_quartic_single_term():
    W = stationary_field(NATURAL_UNITS, 1)
    U = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0))
    for x, p in ((0.6, -0.2), (-0.8, 0.9)):
        closed = -P.hbar**2 * x * W.p_derivative(3, x, p)
        assert moyal_rhs(U, W, x, p, P.hbar) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "zero", "negative"])
@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 1.0)],
                         ids=["quadratic", "cubic"])
def test_moyal_rhs_refuses_non_finite_hbar(coeffs, hbar):
    W = stationary_field(NATURAL_UNITS, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="hbar must be finite"):
            moyal_rhs(PolynomialPotential(coeffs), W, 0.3, 0.2, hbar)


def test_moyal_rhs_refuses_a_non_finite_point():
    U, W = PolynomialPotential((0.0, 0.0, 0.0, 1.0)), stationary_field(NATURAL_UNITS, 2)
    with pytest.raises(ValueError):
        moyal_rhs(U, W, float("nan"), 0.0, 1.0)
    with pytest.raises(ValueError):
        moyal_rhs(U, W, 0.0, float("inf"), 1.0)


def test_moyal_rhs_refuses_bool_coordinates():
    U, W = PolynomialPotential((0.0, 0.0, 0.0, 1.0)), stationary_field(NATURAL_UNITS, 2)
    with pytest.raises(DataError, match="x must be finite, got True"):
        moyal_rhs(U, W, True, 0.0, 1.0)
    with pytest.raises(DataError, match="p must be finite, got False"):
        moyal_rhs(U, W, 0.0, False, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, True],
                         ids=["nan", "inf", "-inf", "bool"])
def test_moyal_rhs_refuses_non_finite_time(t):
    # the exact derivatives never read t, and the plain callable ignores it
    W = stationary_field(NATURAL_UNITS, 2)
    plain = lambda x, p, t=0.0: W(x, p, 0.0)
    U = PolynomialPotential((0.0, 0.0, 0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in (W, plain):
            with pytest.raises(DataError, match="t must be finite"):
                moyal_rhs(U, field, 0.3, 0.2, 1.0, t=t)


def test_moyal_rhs_refuses_an_hbar_whose_term_overflows():
    # (hbar/2)^2 = 2.5e319 is past the doubles: the cubic term would be -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"order-3 Moyal term takes the sum to -inf: "
                                            r"hbar = 1e\+160, U\^\(3\)\(x\) = 6.0, "):
            moyal_rhs(PolynomialPotential((0, 0, 0, 1.0)), stationary_field(NATURAL_UNITS, 2),
                      0.3, 0.2, 1e160)


def test_moyal_rhs_refuses_a_position_whose_term_overflows():
    # U^(3)(x) = 60 x^2 overflows at x = 1e200 while the Gaussian's p-derivative
    # underflows to 0: the term is nan, and hbar = 1 is not its cause
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=r"order-3 Moyal term takes the sum to nan: "
                                            r"hbar = 1.0, U\^\(3\)\(x\) = inf, "
                                            r"d\^3W/dp\^3 = 0.0$"):
            moyal_rhs(PolynomialPotential((0, 0, 0, 0, 0, 1.0)),
                      stationary_field(NATURAL_UNITS, 2), 1e200, 0.0, 1.0)


def test_potential_refuses_bool_coefficients():
    for coeffs in ((0.0, True), (False,), (1.0, 0.0, math.inf)):
        with pytest.raises(ValueError, match="potential coefficients must be finite"):
            PolynomialPotential(coeffs)


def test_moyal_rhs_degree_twelve_runs():
    W = stationary_field(NATURAL_UNITS, 0)
    U = PolynomialPotential((0.0,) * 12 + (1.0,))
    val = moyal_rhs(U, W, 0.5, 0.3, 1.0)
    assert math.isfinite(val)
