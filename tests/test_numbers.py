"""One check per kind of number, over every numeric parameter of the public API.

A Python or numpy bool, a NaN or infinite value and a value out of range
raise ``DataError``; a complex number or an array where one number is due
raises ``TypeError``, and so does a ragged nested list where an array is
allowed; an integer parameter refuses anything that is not one integer, a
complex number included, with ``DataError``.  Each error names the parameter.
``np.float64``, ``np.int64``, Python ints and 0-d arrays are accepted and give
what the plain number gives.  Every number parameter of the public surface has
a row here, which ``test_every_public_number_parameter_has_a_row`` checks.
"""

import dataclasses
import inspect
import math
import re
import types

import numpy as np
import pytest

import phasewave
from phasewave import (NATURAL_UNITS, DataError, ExtendedWigner, Field2D, GridSpec,
                       OscillatorParams, PolynomialPotential, StandingWaveSpec, StandingWaveWigner,
                       StationaryWigner, WaveProfile, energy_xy, evolve_fd, extended_eval,
                       extended_field, hermite, laguerre, laguerre_energy_identity, log_weight,
                       marginal_over_p, marginal_over_x, mean_energy, momentum_density, moyal_rhs,
                       phase_space_integral, poly_derivative, polar_from_xy, position_density,
                       propagate_exact, radial_kernel, run_suite, running_wave_profile,
                       sample_field, standing_wave_eval, standing_wave_field, stationary_field,
                       stationary_profile, wavefunction, wigner_from_wavefunction,
                       wigner_stationary, xy_from_polar)
from phasewave.cli import build_parser, run
from phasewave.special import check_order

P = NATURAL_UNITS
SPEC = StandingWaveSpec(ell=2, A=1.0, C=2.0)
PROFILE = SPEC.to_profile()
GRID = GridSpec(rho_max=4.0, n_rho=4, n_phi=32, dt=0.01)
RHO, PHI = np.array([0.5, 1.0]), np.array([0.0, 1.0])
QUARTIC = PolynomialPotential((0.0, 0.0, 0.5, 0.0, 0.1))
FIELDS = {
    "stationary": stationary_field(P, 1),
    "standing": standing_wave_field(P, 2, SPEC),
    "extended": extended_field(P, 2, PROFILE),
    "rotation": propagate_exact(standing_wave_field(P, 2, SPEC), P, 0.4),
}
F0 = sample_field(FIELDS["stationary"], GRID, 0.0, P)


def _bare(x, p, t):
    """A field that is a plain callable and ignores its time."""
    return FIELDS["stationary"](x, p)


SCALAR = (True, np.True_, np.complex128(1 + 2j), np.array([1.0]), math.nan, math.inf)
RAGGED = [[0.1], [0.2, 0.3]]  # no array has this shape
#: The values each kind of parameter must refuse.
FAULTS = {
    "real": SCALAR,
    "positive": SCALAR + (0.0, -1.0),
    "count": SCALAR + (0, -1, 2.0),             # an integer >= 1
    "index": SCALAR + (-1, 2.0),                # an integer >= 0
    "order": SCALAR + (-1, 65, 2.0),            # an integer in [0, MAX_ORDER]
    # one finite number or an array of them: a time, an angle, or a point of the transform oracle
    "finite": SCALAR[:3] + (math.nan, math.inf, -math.inf, RAGGED),
    "coordinate": SCALAR[:3] + (math.nan, RAGGED),  # an infinite one lies past every Gaussian
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
    ("StandingWaveSpec.omega_wave.omega", "omega", "positive", lambda v: SPEC.omega_wave(v), 2.0),
    ("StandingWaveSpec.period.omega", "omega", "positive", lambda v: SPEC.period(v), 2.0),
    ("WaveProfile.omega_wave.omega", "omega", "positive", lambda v: PROFILE.omega_wave(v), 2.0),
    ("WaveProfile.bracket.omega", "omega", "positive", lambda v: PROFILE.bracket(PHI, 0.1, v),
     2.0),
    ("WaveProfile.bracket.t", "t", "finite", lambda v: PROFILE.bracket(PHI, v, 1.0), 1.0),
    ("WaveProfile.bracket.phi", "phi", "finite", lambda v: PROFILE.bracket(v, 0.1, 1.0), 1.0),
    ("StandingWaveSpec.bracket.omega", "omega", "positive", lambda v: SPEC.bracket(PHI, 0.1, v),
     2.0),
    ("StandingWaveSpec.bracket.t", "t", "finite", lambda v: SPEC.bracket(PHI, v, 1.0), 1.0),
    ("StandingWaveSpec.bracket.phi", "phi", "finite", lambda v: SPEC.bracket(v, 0.1, 1.0), 1.0),
    ("running_wave_profile.A", "A", "real", lambda v: running_wave_profile(v, 2.0, 2).C, 1.0),
    ("running_wave_profile.C", "C", "real", lambda v: running_wave_profile(1.0, v, 2).C, 2.0),
    ("running_wave_profile.kappa", "kappa", "count",
     lambda v: running_wave_profile(1.0, 2.0, v).kappa, 2),
    ("stationary_profile.C", "C", "real", lambda v: stationary_profile(v).C, 2.0),
    ("PolynomialPotential.coeffs", "potential coefficients", "real",
     lambda v: PolynomialPotential((v, 0.0, 1.0)), 1.0),
    ("PolynomialPotential.__call__.x", "x", "coordinate", lambda v: QUARTIC(v), 1.0),
    ("moyal_rhs.x", "x", "real", lambda v: moyal_rhs(QUARTIC, FIELDS["stationary"], v, 0.2, 1.0),
     1.0),
    ("moyal_rhs.p", "p", "real", lambda v: moyal_rhs(QUARTIC, FIELDS["stationary"], 0.3, v, 1.0),
     1.0),
    ("propagate_exact.t", "t", "real",
     lambda v: propagate_exact(FIELDS["standing"], P, v)(0.3, 0.2), 1.0),
    ("evolve_fd.t_final", "t_final", "real", lambda v: evolve_fd(F0, P, v), 1.0),
    ("Field2D.time_tag", "time_tag", "real", lambda v: Field2D(GRID, F0.values, v), 1.0),
    ("sample_field.t.bare", "time_tag", "real", lambda v: sample_field(_bare, GRID, v, P), 1.0),
    ("sample_field.t.standing", "t|time_tag", "real",
     lambda v: sample_field(FIELDS["standing"], GRID, v, P), 1.0),
    ("moyal_rhs.hbar", "hbar", "positive",
     lambda v: moyal_rhs(QUARTIC, FIELDS["stationary"], 0.3, 0.2, v), 1.0),
    ("moyal_rhs.t", "t", "real", lambda v: moyal_rhs(QUARTIC, _bare, 0.3, 0.2, 1.0, v), 1.0),
    ("run_suite.tol_override", "tolerance", "positive",
     lambda v: run_suite("laguerre_moment_identity", tol_override=v).checks[0].tolerance, 1.0),
    ("check_order", "order", "order", check_order, 3),
    ("stationary_field.n", "order", "order", lambda v: stationary_field(P, v)(0.3, 0.2), 3),
    ("laguerre.n", "order", "order", lambda v: laguerre(v, 0.7), 3),
    ("poly_derivative.order", "derivative order", "index",
     lambda v: poly_derivative(QUARTIC, v), 1),
    ("StationaryWigner.p_derivative.order", "derivative order", "index",
     lambda v: FIELDS["stationary"].p_derivative(v, 0.3, 0.2), 1),
    ("StationaryWigner.p_derivative.x", "x", "coordinate",
     lambda v: FIELDS["stationary"].p_derivative(1, v, 0.2), 1.0),
    ("StationaryWigner.p_derivative.p", "p", "coordinate",
     lambda v: FIELDS["stationary"].p_derivative(1, 0.3, v), 1.0),
    ("radial_kernel.rho", "rho", "coordinate", lambda v: radial_kernel(P, 1, v), 1.0),
    ("position_density.x", "x", "coordinate", lambda v: position_density(P, 1, v), 1.0),
    ("momentum_density.p", "p", "coordinate", lambda v: momentum_density(P, 1, v), 1.0),
    ("wavefunction.x", "x", "coordinate", lambda v: wavefunction(P, 1, v), 1.0),
    ("polar_from_xy.x", "x", "coordinate", lambda v: polar_from_xy(P, v, 0.2), 1.0),
    ("polar_from_xy.p", "p", "coordinate", lambda v: polar_from_xy(P, 0.3, v), 1.0),
    ("energy_xy.x", "x", "coordinate", lambda v: energy_xy(P, v, 0.2), 1.0),
    ("energy_xy.p", "p", "coordinate", lambda v: energy_xy(P, 0.3, v), 1.0),
    ("xy_from_polar.rho", "rho", "coordinate", lambda v: xy_from_polar(P, v, 0.2), 1.0),
    ("xy_from_polar.phi", "phi", "finite", lambda v: xy_from_polar(P, 0.5, v), 1.0),
    ("laguerre.x", "x", "coordinate", lambda v: laguerre(2, v), 1.0),
    ("hermite.x", "x", "coordinate", lambda v: hermite(2, v), 1.0),
    ("marginal_over_p.x", "x", "coordinate",
     lambda v: marginal_over_p(FIELDS["stationary"], P, v), 1.0),
    ("marginal_over_x.p", "p", "coordinate",
     lambda v: marginal_over_x(FIELDS["stationary"], P, v), 1.0),
    ("marginal_over_p.t", "t", "finite", lambda v: marginal_over_p(FIELDS["standing"], P, 0.3, v),
     1.0),
    ("marginal_over_p.t.bare", "t", "finite", lambda v: marginal_over_p(_bare, P, 0.3, v), 1.0),
    ("marginal_over_x.t", "t", "finite", lambda v: marginal_over_x(FIELDS["standing"], P, 0.3, v),
     1.0),
    ("phase_space_integral.t", "t", "finite",
     lambda v: phase_space_integral(FIELDS["standing"], P, v), 1.0),
    ("mean_energy.t", "t", "finite", lambda v: mean_energy(FIELDS["standing"], P, v), 1.0),
    ("wigner_from_wavefunction.x", "x", "finite", lambda v: wigner_from_wavefunction(P, 1, v, 0.2),
     1.0),
    ("wigner_from_wavefunction.p", "p", "finite", lambda v: wigner_from_wavefunction(P, 1, 0.3, v),
     1.0),
    ("wigner_stationary.x", "x", "coordinate", lambda v: wigner_stationary(P, 1, v, 0.2), 1.0),
    ("wigner_stationary.p", "p", "coordinate", lambda v: wigner_stationary(P, 1, 0.3, v), 1.0),
    ("extended_eval.x", "x", "coordinate",
     lambda v: extended_eval(P, 2, PROFILE, v, 0.2, 0.1), 1.0),
    ("extended_eval.p", "p", "coordinate",
     lambda v: extended_eval(P, 2, PROFILE, 0.3, v, 0.1), 1.0),
    ("extended_eval.t", "t", "finite", lambda v: extended_eval(P, 2, PROFILE, 0.3, 0.2, v), 1.0),
    ("standing_wave_eval.x", "x", "coordinate",
     lambda v: standing_wave_eval(P, 2, SPEC, v, 0.2, 0.1), 1.0),
    ("standing_wave_eval.p", "p", "coordinate",
     lambda v: standing_wave_eval(P, 2, SPEC, 0.3, v, 0.1), 1.0),
    ("standing_wave_eval.t", "t", "finite", lambda v: standing_wave_eval(P, 2, SPEC, 0.3, 0.2, v),
     1.0),
]
#: One call per callable that takes a state or polynomial order ``n``.
ORDERS = {
    "StationaryWigner": lambda v: StationaryWigner(P, v),  # refused at construction
    "StandingWaveWigner": lambda v: StandingWaveWigner(P, v, SPEC),
    "ExtendedWigner": lambda v: ExtendedWigner(P, v, PROFILE),
    "extended_field": lambda v: extended_field(P, v, PROFILE)(0.3, 0.2),
    "standing_wave_field": lambda v: standing_wave_field(P, v, SPEC)(0.3, 0.2),
    "hermite": lambda v: hermite(v, 0.7),
    "log_weight": log_weight,
    "laguerre_energy_identity": laguerre_energy_identity,
    "radial_kernel": lambda v: radial_kernel(P, v, 0.5),
    "position_density": lambda v: position_density(P, v, 0.3),
    "momentum_density": lambda v: momentum_density(P, v, 0.2),
    "wavefunction": lambda v: wavefunction(P, v, 0.3),
    "wigner_from_wavefunction": lambda v: wigner_from_wavefunction(P, v, 0.3, 0.2),
    "wigner_stationary": lambda v: wigner_stationary(P, v, 0.3, 0.2),
    "extended_eval": lambda v: extended_eval(P, v, PROFILE, 0.3, 0.2, 0.1),
    "standing_wave_eval": lambda v: standing_wave_eval(P, v, SPEC, 0.3, 0.2, 0.1),
}
ENTRIES += [(f"{_name}.n", "order", "order", _call, 3) for _name, _call in ORDERS.items()]
for _W in FIELDS.values():
    _label = type(_W).__name__
    ENTRIES += [
        (f"{_label}.polar_factors.rho", "rho", "coordinate",
         lambda v, W=_W: W.polar_factors(v, PHI), 1.0),
        (f"{_label}.polar_factors.phi", "phi", "finite",
         lambda v, W=_W: W.polar_factors(RHO, v), 1.0),
        (f"{_label}.__call__.t", "t", "finite", lambda v, W=_W: W(0.3, 0.2, v), 1.0),
        (f"{_label}.polar_factors.t", "t", "finite", lambda v, W=_W: W.polar_factors(RHO, PHI, v),
         1.0),
        (f"{_label}.__call__.x", "x", "coordinate", lambda v, W=_W: W(v, 0.2), 1.0),
        (f"{_label}.__call__.p", "p", "coordinate", lambda v, W=_W: W(0.3, v), 1.0),
    ]


def _expected(kind, value):
    """TypeError for an array where one number is due, a ragged list and a complex real; else
    DataError."""
    if value is RAGGED or np.ndim(value) or (np.iscomplexobj(value) and kind not in INTEGERS):
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


#: Parameters that take no number: fields, units, grids, wave and potential
#: objects, a flag, profile callables, a path, a format, suite names and metadata.
NOT_NUMBERS = {"W", "W0", "field", "field0", "fields", "params", "grid", "profile", "spec",
               "wave", "U", "return_error", "f", "g", "path", "fmt", "names", "extra", "meta"}
#: Number parameters that take a whole sampled grid; their refusals are tested apart.
TESTED_APART = {"Field2D.values": "test_the_callers_bad_data_raises_data_error"}
#: Classes whose fields the library fills in rather than reads from a caller.
RECORDS = {"CheckResult", "ParityReport", "VerificationReport"}


def _parameters(namespace):
    """``<callable>.<parameter>`` of every public function, constructor and method.

    A constructor's parameters are ``<Class>.<parameter>`` and a method's
    ``<Class>.<method>.<parameter>``, ``__call__`` included.
    """
    keys = []
    for name, obj in sorted(vars(namespace).items()):
        if name.startswith("_") or name in RECORDS or not callable(obj) or \
                (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", getattr(obj, attr)) for attr, member in vars(obj).items()
                        if inspect.isfunction(member) and
                        (attr == "__call__" or not attr.startswith("_"))]
        for label, fn in members:
            keys += [f"{label}.{param}" for param in inspect.signature(fn).parameters
                     if param != "self" and param not in NOT_NUMBERS]
    return keys


def _uncovered(namespace, labels):
    """The parameters of ``namespace`` that no label (``<key>`` or ``<key>.<case>``) covers."""
    return [key for key in _parameters(namespace) if key not in TESTED_APART and
            not any(label == key or label.startswith(key + ".") for label in labels)]


def test_every_public_number_parameter_has_a_row():
    assert _uncovered(phasewave, [label for label, *_ in ENTRIES]) == []


def test_the_coverage_guard_sees_a_planted_parameter():
    class Planted:
        def __init__(self, params, width):
            pass

        def __call__(self, x, p, t=0.0):
            pass

        def shift(self, amount):
            pass

        def _hidden(self, depth):
            pass

    def planted(W, params, n, sigma, return_error=False):
        pass

    surface = types.SimpleNamespace(Planted=Planted, planted=planted, _private=planted,
                                    DataError=DataError, NATURAL_UNITS=P)
    labels = ["planted.n", "Planted.__call__.x", "Planted.__call__.p.case"]
    assert _uncovered(surface, labels) == ["Planted.width", "Planted.__call__.t",
                                           "Planted.shift.amount", "planted.sigma"]


def test_the_callers_bad_data_raises_data_error():
    bad_values = F0.values.copy()
    bad_values[1, 2] = math.nan
    for call, match in (
            (lambda: OscillatorParams(m=1e-300, omega=1e-300, hbar=1e300), "the scale sigma_x"),
            (lambda: OscillatorParams(alpha=1e7), "the scale shift"),
            (lambda: StandingWaveSpec(2, 1e308, 1e-10), "2A/C must be finite"),
            (lambda: Field2D(GRID, F0.values[:2], 0.0), "values shape"),
            (lambda: Field2D(GRID, bad_values, 0.0), "field values must be finite"),
            (lambda: Field2D(GRID, F0.values > 0.0, 0.0), "values must be finite, got a bool")):
        with pytest.raises(DataError, match=match):
            call()
    with pytest.raises(TypeError, match="values must be real"):
        Field2D(GRID, F0.values + 1j, 0.0)
