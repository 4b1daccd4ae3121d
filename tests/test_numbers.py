"""One check per kind of number, over every numeric parameter of the public API.

A Python or numpy bool, a NaN or infinite value and a value out of range
raise ``DataError``; a complex number or an array where one number is due
raises ``TypeError``; an integer parameter refuses anything that is not one
integer, a complex number included, with ``DataError``.  Each error names the
parameter.  ``np.float64``, ``np.int64``, Python ints and 0-d arrays are
accepted and give what the plain number gives.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from phasewave import (NATURAL_UNITS, DataError, Field2D, GridSpec, OscillatorParams, PhasePoint,
                       PolynomialPotential, StandingWaveSpec, WaveProfile, energy_xy, evolve_fd,
                       extended_field, hermite, laguerre, marginal_over_p, marginal_over_x,
                       momentum_density, moyal_rhs, phase_space_integral, poly_derivative,
                       polar_from_xy, position_density, propagate_exact, radial_kernel,
                       run_suite, sample_field, standing_wave_field, stationary_field,
                       wavefunction, xy_from_polar)
from phasewave.cli import build_parser, run
from phasewave.special import check_order

P = NATURAL_UNITS
SPEC = StandingWaveSpec(ell=2, A=1.0, C=2.0)
GRID = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.01)
RHO, PHI = np.array([0.5, 1.0]), np.array([0.0, 1.0])
QUARTIC = PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.1))
FIELDS = {
    "stationary": stationary_field(P, 1),
    "standing": standing_wave_field(P, 2, SPEC),
    "extended": extended_field(P, 2, SPEC.to_profile()),
    "rotation": propagate_exact(standing_wave_field(P, 2, SPEC), P, 0.4),
}
F0 = sample_field(FIELDS["stationary"], GRID, 0.0, P)


def _bare(x, p, t):
    """A field that is a plain callable and ignores its time."""
    return FIELDS["stationary"](x, p)


SCALAR = (True, np.True_, np.complex128(1 + 2j), np.array([1.0]), math.nan, math.inf)
#: The values each kind of parameter must refuse.
FAULTS = {
    "real": SCALAR,
    "positive": SCALAR + (0.0, -1.0),
    "count": SCALAR + (0, -1, 2.0),             # an integer >= 1
    "index": SCALAR + (-1, 2.0),                # an integer >= 0
    "order": SCALAR + (-1, 65, 2.0),            # an integer in [0, MAX_ORDER]
    "times": SCALAR[:3] + (math.nan, math.inf, -math.inf),  # one time or an array
    "coordinate": SCALAR[:3] + (math.nan,),     # an infinite one lies past every Gaussian
}
INTEGERS = ("count", "index", "order")

#: (label, parameter name as the error gives it, kind, call with the value, a value it accepts)
ENTRIES = [
    ("OscillatorParams.m", "m", "positive", lambda v: OscillatorParams(m=v), 2.0),
    ("OscillatorParams.omega", "omega", "positive", lambda v: OscillatorParams(omega=v), 2.0),
    ("OscillatorParams.hbar", "hbar", "positive", lambda v: OscillatorParams(hbar=v), 2.0),
    ("OscillatorParams.alpha", "alpha", "real", lambda v: OscillatorParams(alpha=v), 1.0),
    ("GridSpec.rho_max", "rho_max", "positive", lambda v: GridSpec(v, 4, 16), 4.0),
    ("GridSpec.dt", "dt", "positive", lambda v: GridSpec(4.0, 4, 16, dt=v), 1.0),
    ("GridSpec.n_rho", "n_rho", "count", lambda v: GridSpec(4.0, v, 16), 4),
    ("GridSpec.n_phi", "n_phi", "count", lambda v: GridSpec(4.0, 4, v), 16),
    ("StandingWaveSpec.ell", "ell", "count", lambda v: StandingWaveSpec(v, 1.0, 2.0), 2),
    ("StandingWaveSpec.A", "A", "real", lambda v: StandingWaveSpec(2, v, 2.0), 1.0),
    ("StandingWaveSpec.C", "C", "positive", lambda v: StandingWaveSpec(2, 1.0, v), 2.0),
    ("WaveProfile.C", "C", "real", lambda v: WaveProfile(np.sin, np.cos, v, 2), 2.0),
    ("WaveProfile.kappa", "kappa", "count", lambda v: WaveProfile(np.sin, np.cos, 2.0, v), 2),
    ("PolynomialPotential", "potential coefficients", "real",
     lambda v: PolynomialPotential((v, 0.0, 1.0)), 1.0),
    ("PhasePoint.x", "x", "real", lambda v: PhasePoint(v, 0.2), 1.0),
    ("PhasePoint.p", "p", "real", lambda v: PhasePoint(0.3, v), 1.0),
    ("propagate_exact.t", "t", "real",
     lambda v: propagate_exact(FIELDS["standing"], P, v)(0.3, 0.2), 1.0),
    ("evolve_fd.t_final", "t_final", "real", lambda v: evolve_fd(F0, P, v), 1.0),
    ("Field2D.time_tag", "time_tag", "real", lambda v: Field2D(GRID, F0.values, v), 1.0),
    ("sample_field.t.bare", "time_tag", "real", lambda v: sample_field(_bare, GRID, v, P), 1.0),
    ("sample_field.t.standing", "t|time_tag", "real",
     lambda v: sample_field(FIELDS["standing"], GRID, v, P), 1.0),
    ("moyal_rhs.hbar", "hbar", "positive",
     lambda v: moyal_rhs(QUARTIC, FIELDS["stationary"], PhasePoint(0.3, 0.2), v), 1.0),
    ("moyal_rhs.t", "t", "real",
     lambda v: moyal_rhs(QUARTIC, _bare, PhasePoint(0.3, 0.2), 1.0, v), 1.0),
    ("run_suite.tol_override", "tolerance", "positive",
     lambda v: run_suite("laguerre_moment_identity", tol_override=v).checks[0].tolerance, 1.0),
    ("check_order", "order", "order", check_order, 3),
    ("stationary_field.n", "order", "order", lambda v: stationary_field(P, v)(0.3, 0.2), 3),
    ("laguerre.n", "order", "order", lambda v: laguerre(v, 0.7), 3),
    ("poly_derivative.order", "derivative order", "index",
     lambda v: poly_derivative(QUARTIC, v), 1),
    ("p_derivative.order", "derivative order", "index",
     lambda v: FIELDS["stationary"].p_derivative(v, 0.3, 0.2), 1),
    ("p_derivative.x", "x", "coordinate",
     lambda v: FIELDS["stationary"].p_derivative(1, v, 0.2), 1.0),
    ("radial_kernel.rho", "rho", "coordinate", lambda v: radial_kernel(P, 1, v), 1.0),
    ("position_density.x", "x", "coordinate", lambda v: position_density(P, 1, v), 1.0),
    ("momentum_density.p", "p", "coordinate", lambda v: momentum_density(P, 1, v), 1.0),
    ("wavefunction.x", "x", "coordinate", lambda v: wavefunction(P, 1, v), 1.0),
    ("polar_from_xy.x", "x", "coordinate", lambda v: polar_from_xy(P, v, 0.2), 1.0),
    ("energy_xy.p", "p", "coordinate", lambda v: energy_xy(P, 0.3, v), 1.0),
    ("xy_from_polar.rho", "rho", "coordinate", lambda v: xy_from_polar(P, v, 0.2), 1.0),
    ("xy_from_polar.phi", "phi", "coordinate", lambda v: xy_from_polar(P, 0.5, v), 1.0),
    ("laguerre.x", "x", "coordinate", lambda v: laguerre(2, v), 1.0),
    ("hermite.x", "x", "coordinate", lambda v: hermite(2, v), 1.0),
    ("marginal_over_p.x", "x", "coordinate",
     lambda v: marginal_over_p(FIELDS["stationary"], P, v), 1.0),
    ("marginal_over_x.p", "p", "coordinate",
     lambda v: marginal_over_x(FIELDS["stationary"], P, v), 1.0),
    ("marginal_over_p.t", "t", "times", lambda v: marginal_over_p(FIELDS["standing"], P, 0.3, v),
     1.0),
    ("phase_space_integral.t", "t", "times",
     lambda v: phase_space_integral(FIELDS["standing"], P, v), 1.0),
]
for _label, _W in FIELDS.items():
    ENTRIES += [
        (f"{_label}.t", "t", "times", lambda v, W=_W: W(0.3, 0.2, v), 1.0),
        (f"{_label}.polar_factors.t", "t", "times", lambda v, W=_W: W.polar_factors(RHO, PHI, v),
         1.0),
        (f"{_label}.x", "x", "coordinate", lambda v, W=_W: W(v, 0.2), 1.0),
        (f"{_label}.p", "p", "coordinate", lambda v, W=_W: W(0.3, v), 1.0),
    ]


def _expected(kind, value):
    """TypeError for an array where one number is due and for a complex real; else DataError."""
    if np.ndim(value) or (np.iscomplexobj(value) and kind not in INTEGERS):
        return TypeError
    return DataError


def _refusals():
    for label, name, kind, call, _ in ENTRIES:
        for value in FAULTS[kind]:
            yield pytest.param(call, name, kind, value, id=f"{label}-{value!r}")


@pytest.mark.parametrize("call, name, kind, value", list(_refusals()))
def test_every_number_parameter_refuses_what_it_cannot_take(call, name, kind, value):
    with pytest.raises(_expected(kind, value)) as info:
        call(value)
    assert re.search(rf"(?<![\w.])(?:{name})(?!\w)", str(info.value)), str(info.value)


def _key(out):
    """What a result holds, for comparison: a dataclass's repr also shows its fields' types."""
    if isinstance(out, Field2D):
        return out.time_tag, out.values.tobytes()
    if isinstance(out, tuple):
        return tuple(_key(part) for part in out)
    if dataclasses.is_dataclass(out):
        return repr(out)
    return np.asarray(out, dtype=float).tobytes()


def _acceptances():
    for label, _, kind, call, ref in ENTRIES:
        if kind in INTEGERS:
            variants = (np.int64(ref), np.int32(ref), np.array(ref))
        else:
            variants = (np.float64(ref), np.int64(int(ref)), int(ref), np.array(ref))
        for value in variants:
            yield pytest.param(call, ref, value, id=f"{label}-{type(value).__name__}")


@pytest.mark.parametrize("call, ref, value", list(_acceptances()))
def test_numpy_numbers_ints_and_0d_arrays_give_what_the_plain_number_gives(call, ref, value):
    assert _key(call(value)) == _key(call(ref))


@pytest.mark.parametrize("argv, name", [
    (["eval", "--m", "0"], "m"), (["eval", "--omega", "nan"], "omega"),
    (["eval", "--hbar", "-1"], "hbar"), (["eval", "--alpha", "inf"], "alpha"),
    (["eval", "--ell", "2", "--A", "nan"], "A"), (["eval", "--ell", "2", "--C", "0"], "C"),
    (["eval", "--ell", "0"], "ell"), (["eval", "--n", "65"], "order"),
    (["eval", "--x", "nan"], "x"), (["eval", "--p", "inf"], "p"),
    (["grid", "--rho-max", "-1"], "rho_max"), (["grid", "--n-rho", "0"], "n_rho"),
    (["grid", "--n-phi", "1"], "n_phi"), (["evolve", "--dt", "0"], "dt"),
    (["check", "--suite", "laguerre_moment_identity", "--tol", "nan"], "tolerance"),
])
def test_the_cli_exits_2_naming_each_refused_number(argv, name, tmp_path, capsys):
    assert run(build_parser().parse_args([*argv, "--out", str(tmp_path)] if argv[0] in
                                         ("grid", "evolve") else argv)) == 2
    err = capsys.readouterr().err
    assert re.search(rf"error: .*(?<!\w){name} must be", err), err
