"""Units: the scales ``OscillatorParams`` forms, the sweep over extreme units, and the design guard.

Every accepted (m, omega, hbar, alpha) must give values the rules back, and
every other one must be refused when the parameters are built, naming the
scale that does not fit in a double.
"""

import ast
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasewave
from phasewave import (NATURAL_UNITS, AccuracyError, ConfigurationError, Field2D, GridSpec,
                       OscillatorParams, StandingWaveSpec, marginal_over_p, marginal_over_x,
                       mean_energy, phase_space_integral, sample_field, standing_wave_field,
                       wave_residual)
from phasewave.cli import build_parser, run
from phasewave.oscillator import MAX_SHIFT_WIDTHS
from phasewave.quadrature import TOL

EXPONENTS = (-300, -150, -50, 0, 50, 150, 300)
SCALES = ("sigma_x", "sigma_p", "rho_scale", "value_scale", "area", "shift")


def test_natural_units_have_unit_scales():
    P = NATURAL_UNITS
    assert (P.sigma_x, P.sigma_p, P.rho_scale, P.area, P.shift) == (1.0, 1.0, 1.0, 1.0, 0.0)
    assert P.value_scale == 1.0 / math.pi


@pytest.mark.parametrize("params", [OscillatorParams(m=4.0, omega=0.25, hbar=9.0, alpha=0.5),
                                    OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9),
                                    OscillatorParams(m=1e-300, omega=1e300, hbar=1e-300)])
def test_scales_match_their_formulas(params):
    m, w, h, a = params.m, params.omega, params.hbar, params.alpha
    for name, value in (("sigma_x", math.sqrt(h / (m * w))), ("sigma_p", math.sqrt(m * h * w)),
                        ("rho_scale", math.sqrt(h * w / m)), ("value_scale", 1.0 / (math.pi * h)),
                        ("area", h), ("shift", a / (m * w * w))):
        assert getattr(params, name) == pytest.approx(value, rel=1e-15), name


def test_scales_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        OscillatorParams(sigma_x=2.0)
    assert "sigma_x" not in repr(NATURAL_UNITS)
    assert OscillatorParams(alpha=0.5) == OscillatorParams(alpha=0.5)


@pytest.mark.parametrize("kwargs, scale", [
    ({"m": 1e-300, "omega": 1e-300, "hbar": 1e300}, "sigma_x"),
    ({"m": 1e300, "omega": 1e300, "hbar": 1e-300}, "sigma_x"),
    ({"m": 1e300, "omega": 1e300, "hbar": 1e300}, "sigma_p"),
    ({"m": 1e-300, "omega": 1e300, "hbar": 1e300}, "rho_scale"),
    ({"hbar": 1e-310}, "value_scale"),
    ({"hbar": 5e-324}, "value_scale"),
    ({"omega": 1e-300, "alpha": 1.0}, "shift"),
    ({"alpha": 1e7}, "shift"),
])
def test_refused_units_name_the_scale(kwargs, scale):
    with pytest.raises(ValueError, match=f"^the scale {scale} = "):
        OscillatorParams(**kwargs)


def test_the_shift_is_refused_past_its_bound_and_kept_up_to_it():
    assert OscillatorParams(alpha=MAX_SHIFT_WIDTHS).shift == MAX_SHIFT_WIDTHS
    with pytest.raises(ValueError, match="^the scale shift"):
        OscillatorParams(alpha=math.nextafter(MAX_SHIFT_WIDTHS, math.inf))
    assert OscillatorParams(alpha=1e-320).shift == 1e-320  # a subnormal shift is exact enough


def _density_in_widths(z):
    """|psi_3(z)|^2 = H_3(z)^2 exp(-z^2) / (2^3 3! sqrt(pi)), with H_3(z) = 8z^3 - 12z."""
    h = 8.0 * z**3 - 12.0 * z
    return h * h * np.exp(-z * z) / (48.0 * math.sqrt(math.pi))


def _triples():
    for a, b, c in itertools.product(EXPONENTS, repeat=3):
        yield (a, b, c), (float(f"1e{a}"), float(f"1e{b}"), float(f"1e{c}"))


def _four_scales_are_doubles(a, b, c):
    # exponents of sigma_x, sigma_p, rho_scale and 1/(pi hbar), each a multiple of 25
    return all(abs(e) <= 300 for e in ((c - a - b) / 2, (a + b + c) / 2, (c + b - a) / 2, c))


SPEC = StandingWaveSpec(ell=2, A=0.3, C=1.0)
WIDTHS = np.array([-1.0, 0.5, 2.0])


def _sweep(alpha):
    """(exponents, outcome) per triple: "refused", or the worst error in natural scales."""
    out = {}
    for exps, (m, w, h) in _triples():
        try:
            P = OscillatorParams(m=m, omega=w, hbar=h, alpha=alpha)
        except ValueError as exc:
            assert str(exc).startswith("the scale "), exc
            assert any(f"the scale {name} = " in str(exc) for name in SCALES), exc
            out[exps] = "refused"
            continue
        W = standing_wave_field(P, 3, SPEC)
        t = SPEC.period(w) / 8.0
        density = _density_in_widths(WIDTHS)
        errs = [abs(phase_space_integral(W, P, t) - 1.0), abs(mean_energy(W, P, t) - 3.5)]
        errs += (np.abs(marginal_over_p(W, P, WIDTHS * P.sigma_x - P.shift, t) * P.sigma_x
                        - density)).tolist()
        errs += (np.abs(marginal_over_x(W, P, WIDTHS * P.sigma_p, t) * P.sigma_p
                        - density)).tolist()
        out[exps] = max(errs)
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_every_unit_triple_gives_backed_values_or_is_refused(alpha):
    outcomes = _sweep(alpha)
    wrong = {k: v for k, v in outcomes.items() if v != "refused" and not v <= TOL}
    assert wrong == {}
    passed = {k for k, v in outcomes.items() if v != "refused"}
    doubles = {k for k, _ in _triples() if _four_scales_are_doubles(*k)}
    assert passed <= doubles
    if alpha == 0.0:
        assert passed == doubles and len(passed) == 301


def test_cli_exits_2_for_every_refused_triple(capsys):
    refused = 0
    for alpha in (0.0, 0.3):
        for _, (m, w, h) in _triples():
            try:
                OscillatorParams(m=m, omega=w, hbar=h, alpha=alpha)
                continue
            except ValueError:
                refused += 1
            argv = ["eval", "--n", "3", "--ell", "2", "--A", "0.3", "--C", "1",
                    "--m", repr(m), "--omega", repr(w), "--hbar", repr(h), "--alpha", repr(alpha)]
            assert run(build_parser().parse_args(argv)) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("phasewave: error: the scale ")
    assert refused == 42 + 183


@pytest.mark.parametrize("omega", ["1e300", "1e-300"])
def test_cli_eval_at_extreme_frequencies_prints_a_value(omega):
    src = os.path.dirname(os.path.dirname(phasewave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "phasewave.cli",
                           "eval", "--omega", omega, "--n", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == "t,W\n0,-0.31830988618379069\n"  # -1/pi, the n = 1 value at the origin


def test_wave_residual_at_a_high_frequency():
    """W_tt - omega^2 W_phiphi at omega = 1e200 on steps dt ~ 1/omega, against omega = 1.

    The same dimensionless field, sampled at the same phases omega t and
    scaled by 1e-300, has a residual 1e-300 omega^2 = 1e100 times the
    natural one; neither omega^2 nor dt^2 is a double.
    """
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)

    def residual(params, scale):
        grid = GridSpec(rho_max=4.0 * params.rho_scale, n_rho=8, n_phi=64)
        W = standing_wave_field(params, 0, spec)
        dt = 0.5 * grid.delta_phi / params.omega
        t0 = 0.3 * spec.period(params.omega)
        fields = [Field2D(grid, scale * sample_field(W, grid, t0 + k * dt, params).values,
                          t0 + k * dt) for k in (-1, 0, 1)]
        return wave_residual(fields, params).values

    fast = residual(OscillatorParams(omega=1e200), 1e-300)
    slow = residual(NATURAL_UNITS, 1.0)
    assert np.all(np.isfinite(fast)) and np.max(np.abs(slow)) > 1e-3
    np.testing.assert_allclose(fast, 1e100 * slow, rtol=1e-6,
                               atol=1e-6 * 1e100 * np.max(np.abs(slow)))


@pytest.mark.parametrize("A", [1e307, 1e300])
@pytest.mark.parametrize("rule", [phase_space_integral, mean_energy])
def test_disk_rules_refuse_an_amplitude_no_sum_can_back(rule, A):
    # the trapezoid's rounding on 2A sin(4 phi) alone is ~2e291 at A = 1e307
    W = standing_wave_field(NATURAL_UNITS, 1, StandingWaveSpec(ell=2, A=A, C=1.0))
    with pytest.raises(AccuracyError):
        rule(W, NATURAL_UNITS)
    with pytest.raises(ConfigurationError, match="outermost ring"):  # exp(-EXTENT^2) A ~ 1e190
        rule(lambda x, p, t: W(x, p, t), NATURAL_UNITS)


# ------------------------------------------------------------- design guard

SRC = Path(phasewave.__file__).resolve().parent
KERNEL_MODULES = ("wigner.py", "extended.py", "quadrature.py", "evolution.py")
PARAMETERS = {"m", "omega", "hbar", "alpha"}


def _parameter_powers(tree):
    """Line numbers of ``**`` whose base reads a parameter, as an attribute or a name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            for sub in ast.walk(node.left):
                if (isinstance(sub, ast.Attribute) and sub.attr in PARAMETERS) or \
                        (isinstance(sub, ast.Name) and sub.id in PARAMETERS):
                    lines.append(node.lineno)
                    break
    return lines


def test_kernels_and_rules_read_only_the_scales():
    reads = {}
    for name in KERNEL_MODULES:
        tree = ast.parse((SRC / name).read_text(), name)
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("m", "hbar")]
        if found:
            reads[name] = found
    assert reads == {}


def test_no_module_raises_a_parameter_to_a_power():
    powers = {}
    for path in sorted(SRC.glob("*.py")):
        found = _parameter_powers(ast.parse(path.read_text(), path.name))
        if found:
            powers[path.name] = found
    assert powers == {}


def _polar_protocol(tree):
    """Lines of ``hasattr(..., "polar_factors")`` and of the forks the polar adapter replaced."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "hasattr" and len(node.args) == 2 and \
                isinstance(node.args[1], ast.Constant) and node.args[1].value == "polar_factors":
            lines.append(("hasattr", node.lineno))
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)) and \
                node.name in ("_FactoredRotation", "_polar_factor_vectors"):
            lines.append((node.name, node.lineno))
    return sorted(lines, key=lambda entry: entry[1])


def test_every_field_is_read_on_the_polar_grid_through_one_adapter():
    found = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if (lines := _polar_protocol(ast.parse(path.read_text(), path.name)))}
    assert list(found) == ["oscillator.py"], found
    assert [kind for kind, _ in found["oscillator.py"]] == ["hasattr"], found


def test_the_polar_guard_sees_what_it_forbids():
    tree = ast.parse("if hasattr(W, 'polar_factors'):\n    pass\nhasattr(W, 'p_derivative')\n"
                     "class _FactoredRotation:\n    pass\ndef _polar_factor_vectors():\n    pass\n")
    assert _polar_protocol(tree) == [("hasattr", 1), ("_FactoredRotation", 4),
                                     ("_polar_factor_vectors", 6)]


def _calls(tree, name):
    """(scope, line) of each call of ``name``; the scope dots its classes and functions."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                calls.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return sorted(calls, key=lambda call: call[1])


def test_every_sampled_grid_is_read_by_one_walker():
    # the block walker samples grids; a rotation and the disk rule read factors at their own nodes
    found = sorted((path.stem, scope) for path in SRC.glob("*.py")
                   for scope, _ in _calls(ast.parse(path.read_text(), path.name), "_polar_grid"))
    assert found == [("evolution", "Rotation.polar_factors"), ("evolution", "_sampled_blocks"),
                     ("quadrature", "_disk_sum")]


def test_the_walker_guard_sees_what_it_forbids():
    tree = ast.parse("from .oscillator import _polar_grid\n_polar_grid(W)\n"
                     "class R:\n    def f(self):\n        return oscillator._polar_grid(W)\n"
                     "def g():\n    def h():\n        return [_polar_grid(W)]\n    _polar_factors(W)\n")
    assert _calls(tree, "_polar_grid") == [("", 2), ("R.f", 5), ("g.h", 8)]
    # a call passed as another call's argument, as a stream is to zip
    assert _calls(ast.parse("def f():\n    return zip(ts, evolution.propagate_exact(W, P, t))\n"),
                  "propagate_exact") == [("f", 2)]


def test_one_comparison_of_an_upwind_run_with_the_exact_rotation():
    # evolve, evolve --out and the convergence check run the one stream, which
    # alone turns the exact rotation; evolve_fd is for callers that want a field
    def found(name):
        return sorted((path.stem, scope) for path in SRC.glob("*.py")
                      for scope, _ in _calls(ast.parse(path.read_text(), path.name), name))

    assert found("propagate_exact") == [("evolution", "_evolve_against_exact")]
    assert found("evolve_fd") == []
    assert found("_sampled_blocks") == [("evolution", "_evolve_against_exact")] * 2 + \
        [("gridio", "sample_field"), ("verify", "check_positivity_edge")]
    assert ("verify", "check_solver_convergence") not in found("sample_field")


def test_only_the_registration_builds_a_check_result():
    # each check declares its constants and returns what it measured; and the
    # registration reads no check's parameters to decide which takes --tol
    found = sorted((path.stem, scope) for path in SRC.glob("*.py")
                   for scope, _ in _calls(ast.parse(path.read_text(), path.name), "CheckResult"))
    assert found == [("verify", "_check.register.judged")]
    assert _calls(ast.parse((SRC / "verify.py").read_text(), "verify.py"), "signature") == []


def test_the_result_guard_sees_what_it_forbids():
    tree = ast.parse("def _check(p):\n    def register(body):\n        return CheckResult(p=p)\n"
                     "@_check('p')\ndef check_x(tol):\n    return verify.CheckResult(tol=tol)\n"
                     "inspect.signature(check_x)\n")
    assert _calls(tree, "CheckResult") == [("_check.register", 3), ("check_x", 6)]
    assert _calls(tree, "signature") == [("", 7)]


def test_every_ring_transform_is_in_the_stepper():
    # evolve_fd and the evolve command step their rings through one path
    found = sorted((path.stem, name, scope) for path in SRC.glob("*.py")
                   for name in ("rfft", "irfft")
                   for scope, _ in _calls(ast.parse(path.read_text(), path.name), name))
    assert found == [("evolution", "irfft", "_stepped_blocks"),
                     ("evolution", "rfft", "_stepped_blocks")]


def test_the_transform_guard_sees_what_it_forbids():
    tree = ast.parse("import numpy as np\nnp.fft.rfft(v)\ndef f():\n    return np.fft.irfft(s)\n"
                     "from numpy.fft import rfft\nclass R:\n    def g(self):\n        rfft(v)\n"
                     "np.fft.rfftn(v)\n")
    assert _calls(tree, "rfft") == [("", 2), ("R.g", 8)]
    assert _calls(tree, "irfft") == [("f", 4)]


def test_the_guard_sees_what_it_forbids():
    tree = ast.parse("a = params.omega**2\nb = (hbar / 2.0) ** k\nc = (-1.0) ** k * rho**2\n")
    assert _parameter_powers(tree) == [1, 2]


def _number_type_tests(tree):
    """Lines of ``isinstance(..., bool)`` or of an int type: the number checks of ``errors.py``."""
    def number_type(node):
        return (isinstance(node, ast.Name) and node.id in ("bool", "int")) or \
            (isinstance(node, ast.Attribute) and node.attr in ("bool_", "integer"))

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
                node.func.id == "isinstance" and len(node.args) == 2:
            types = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(number_type(t) for t in types):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_errors_py_decides_what_a_number_is():
    found = {path.name: lines for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
             if (lines := _number_type_tests(ast.parse(path.read_text(), path.name)))}
    assert found == {}


def test_the_number_guard_sees_what_it_forbids():
    tree = ast.parse("isinstance(v, bool)\nisinstance(v, (int, np.integer)) and not "
                     "isinstance(v, bool)\nisinstance(v, np.bool_)\nisinstance(v, str)\n"
                     "isinstance(wave, StandingWaveSpec)\n")
    assert _number_type_tests(tree) == [1, 2, 2, 3]
