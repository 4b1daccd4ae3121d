import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import phasewave
from phasewave import cli, verify
from phasewave import (NATURAL_UNITS, GridSpec, OscillatorParams, StandingWaveSpec, evolve_fd,
                       export_field, propagate_exact, read_field, sample_field,
                       standing_wave_field, stationary_field)
from phasewave.cli import build_parser, parse_time, run
from phasewave.errors import AccuracyError, BlowupError
from phasewave.evolution import _evolve_against_exact

from oracles import max_deviation_whole_grid


def invoke(argv):
    return run(build_parser().parse_args(argv))


def run_module(argv, timeout=60):
    """Run ``python -m phasewave.cli`` in a fresh interpreter; returns the completed process."""
    src = os.path.dirname(os.path.dirname(phasewave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "phasewave.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_parse_time_forms():
    T = 2.0
    assert parse_time("0.5", None) == 0.5
    assert parse_time("T", T) == 2.0
    assert parse_time("T/4", T) == 0.5
    assert parse_time("3T/4", T) == 1.5
    assert parse_time("0.5T", T) == 1.0
    with pytest.raises(ValueError):
        parse_time("T/4", None)
    with pytest.raises(ValueError):
        parse_time("abc", T)
    for token in ("nan", "inf", "-inf", "1e400", "T/0", "1e308T"):
        with pytest.raises(ValueError):
            parse_time(token, T)


@pytest.mark.parametrize("argv", [
    ["eval", "--t", "nan"],
    ["eval", "--t", "inf"],
    ["eval", "--ell", "3", "--t", "T/0"],
    ["evolve", "--n-rho", "4", "--n-phi", "32", "--t", "inf"],
])
def test_nonfinite_time_is_usage_error(argv, capsys):
    assert invoke(argv) == 2
    assert "phasewave: error: time" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--n", "1", "--ell", "2", "--t", "1e308"],
    ["grid", "--n-rho", "4", "--n-phi", "16", "--ell", "2", "--t", "1e308"],
])
def test_time_whose_wave_phase_overflows_is_usage_error(argv, tmp_path, capsys):
    assert invoke([*argv, "--out", str(tmp_path)] if argv[0] == "grid" else argv) == 2
    captured = capsys.readouterr()
    assert "takes the wave phase" in captured.err and "to inf" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_amplitude_whose_modulation_overflows_is_usage_error(capsys):
    assert invoke(["eval", "--n", "1", "--ell", "2", "--A", "1e308", "--x", "1", "--p", "1"]) == 2
    captured = capsys.readouterr()
    assert "2A/C must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["eval", "--t", ","],
    ["grid", "--n-rho", "4", "--n-phi", "16", "--t", ","],
    ["evolve", "--n-rho", "4", "--n-phi", "32", "--t", ",,,"],
], ids=["eval", "grid", "evolve"])
def test_a_time_list_with_no_time_is_usage_error(argv, tmp_path, capsys):
    assert invoke([*argv, "--out", str(tmp_path)] if argv[0] != "eval" else argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"phasewave: error: --t {argv[-1]!r} lists no time\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_grid_nonfinite_time_writes_nothing(tmp_path, capsys):
    out = tmp_path / "field.csv"
    assert invoke(["grid", "--n-rho", "4", "--n-phi", "16", "--t", "nan",
                   "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_nodes_text_output(capsys):
    assert invoke(["nodes", "--ell", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("nodes: 0 ")
    assert f"{math.pi / 6:.17g}" in lines[0]
    assert f"{math.pi / 12:.17g}" in lines[1]


def test_nodes_json_output(capsys):
    assert invoke(["nodes", "--ell", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes"] == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert len(doc["antinodes"]) == 4


def test_eval_stationary_origin(capsys):
    assert invoke(["eval", "--n", "0", "--x", "0", "--p", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t,W"
    t, w = out[1].split(",")
    assert float(w) == pytest.approx(1 / math.pi, rel=1e-12)


def test_eval_standing_wave_times_json(capsys):
    assert invoke(["eval", "--n", "0", "--ell", "3", "--x", "0.3", "--p", "-0.2",
                   "--t", "0,T/4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    W = standing_wave_field(NATURAL_UNITS, 0, StandingWaveSpec(ell=3, A=2.0, C=5.0))
    assert doc["W"][0] == pytest.approx(float(W(0.3, -0.2, 0.0)), rel=1e-12)
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    assert doc["t"][1] == pytest.approx(spec.period(1.0) / 4.0, rel=1e-12)


def test_eval_far_point_is_zero(capsys):
    assert invoke(["eval", "--n", "64", "--x", "1000"]) == 0
    assert capsys.readouterr().out.splitlines() == ["t,W", "0,0"]


@pytest.mark.parametrize("argv", [["--x", "inf"], ["--x", "nan"], ["--p=-inf"],
                                  ["--ell", "2", "--x", "nan"]])
def test_eval_nonfinite_point_is_usage_error(argv, capsys):
    assert invoke(["eval", "--n", "3", *argv]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_grid_far_rings_are_zero(tmp_path, capsys):
    out = tmp_path / "far.csv"
    assert invoke(["grid", "--n", "64", "--rho-max", "2000", "--n-rho", "8", "--n-phi", "8",
                   "--out", str(out)]) == 0
    capsys.readouterr()
    fld, _ = read_field(out)
    # the rings lie at rho = 250 .. 2000, where exp(-rho^2) underflows to 0
    assert np.all(fld.values == 0.0)


def test_eval_period_notation_needs_ell(capsys):
    assert invoke(["eval", "--n", "0", "--t", "T/4"]) == 2
    assert "ell" in capsys.readouterr().err


def test_grid_export_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["grid", "--n", "0", "--ell", "1", "--A", "0.4", "--C", "1",
            "--n-rho", "4", "--n-phi", "16", "--rho-max", "2.0", "--t", "T/8"]
    assert invoke(argv + ["--out", str(out1)]) == 0
    assert invoke(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    fld, meta = read_field(out1)
    assert fld.values.shape == (4, 16)
    assert meta["ell"] == 1 and meta["A"] == 0.4


def test_grid_multiple_times_to_directory(tmp_path, capsys):
    outdir = tmp_path / "fields"
    assert invoke(["grid", "--n", "1", "--n-rho", "4", "--n-phi", "16",
                   "--t", "0,0.5", "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert (outdir / "field_t0.csv").exists()
    assert (outdir / "field_t1.csv").exists()


def test_default_output_directory_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PHASEWAVE_OUT", str(tmp_path))
    assert invoke(["grid", "--n", "0", "--n-rho", "4", "--n-phi", "16",
                   "--t", "0"]) == 0
    capsys.readouterr()
    assert (tmp_path / "field.csv").exists()


def test_figures_exports_six_grids(tmp_path, capsys):
    assert invoke(["figures", "--n-rho", "4", "--n-phi", "16", "--format", "json",
                   "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["wigner_n0_t0.json", "wigner_n0_tT2.json", "wigner_n0_tT4.json",
                     "wigner_n5_t0.json", "wigner_n5_tT2.json", "wigner_n5_tT4.json"]
    doc = json.loads((tmp_path / "wigner_n5_tT4.json").read_text())
    assert doc["params"]["ell"] == 3
    assert doc["params"]["A"] == 2.0
    assert doc["params"]["C"] == 5.0


def test_figures_quarter_period_grid_matches_stationary(tmp_path, capsys):
    assert invoke(["figures", "--n-rho", "4", "--n-phi", "16", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    quarter, _ = read_field(tmp_path / "wigner_n0_tT4.csv")
    from phasewave import sample_field, stationary_field
    ref = sample_field(stationary_field(NATURAL_UNITS, 0), quarter.grid, 0.0, NATURAL_UNITS)
    assert np.max(np.abs(quarter.values - ref.values)) <= 1e-12


def test_check_single_suite_passes(capsys):
    assert invoke(["check", "--suite", "extended_normalization"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] extended_normalization" in out


def test_check_report_written(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert invoke(["check", "--suite", "laguerre_moment_identity",
                   "--out", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert doc["passed"] is True
    assert doc["checks"][0]["name"] == "laguerre_moment_identity"
    assert "tolerance" in doc["checks"][0]


def test_check_report_carries_energy_spectrum_details(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert invoke(["check", "--suite", "energy_spectrum", "--out", str(path)]) == 0
    capsys.readouterr()
    details = json.loads(path.read_text())["checks"][0]["details"]
    assert sorted(details) == sorted([f"stationary n={n}" for n in range(9)]
                                     + ["standing n=0", "standing n=5"])
    assert details["stationary n=3"] == pytest.approx(3.5, abs=1e-6)
    assert details["standing n=5"] == pytest.approx([5.5] * 4, abs=1e-6)


def test_check_forced_failure_sets_exit_code(capsys):
    assert invoke(["check", "--suite", "stationary_normalization", "--tol", "1e-30"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] stationary_normalization" in out


@pytest.mark.parametrize("tol", ["inf", "-1", "0", "nan"])
def test_check_tolerance_not_finite_and_positive_is_usage_error(tol, capsys):
    assert invoke(["check", "--suite", "stationary_normalization", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tolerance must be finite and positive" in captured.err
    assert captured.out == ""


def test_check_unknown_suite_is_usage_error(capsys):
    assert invoke(["check", "--suite", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("suite", [",", "", " , "])
def test_empty_suite_selection_is_refused_by_the_api_and_the_cli(suite, tmp_path, capsys):
    for names in ((), [], iter(())):
        with pytest.raises(ValueError, match="no suite selected"):
            phasewave.run_suite(names)
    out = tmp_path / "report.json"
    assert invoke(["check", "--suite", suite, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "no suite selected; known: all, stationary_normalization" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_check_suite_imports_neither_numpy_random_nor_numpy_polynomial():
    # pytest's own process has imported both, so the suite runs in a new one
    code = ("import sys\n"
            "import phasewave.cli\n"
            "try:\n"
            "    phasewave.cli.main(['check', '--suite', 'all'])\n"
            "except SystemExit as exc:\n"
            "    status = exc.code\n"
            "print(status, sorted(m for m in sys.modules\n"
            "                     if m.startswith(('numpy.random', 'numpy.polynomial'))))\n")
    src = os.path.dirname(os.path.dirname(phasewave.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2] == "ALL CHECKS PASSED (13/13)"
    assert lines[-1] == "0 []"


def test_a_report_of_no_checks_does_not_pass():
    report = phasewave.VerificationReport(checks=[])
    assert not report.passed
    assert report.to_dict() == {"passed": False, "checks": []}
    assert report.lines() == ["CHECK FAILURES PRESENT (0/0)"]


def test_evolve_reports_error_and_exports(tmp_path, capsys):
    assert invoke(["evolve", "--n", "0", "--n-rho", "4", "--n-phi", "32",
                   "--t", "1.0", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max|fd-exact|" in out
    assert (tmp_path / "evolved_t0.csv").exists()


def test_evolve_several_times_to_one_file_name(tmp_path, capsys):
    out = tmp_path / "evolved.csv"
    assert invoke(["evolve", "--n-rho", "4", "--n-phi", "32", "--t", "0.5,1.0",
                   "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["evolved_t0.csv", "evolved_t1.csv"]
    assert read_field(tmp_path / "evolved_t1.csv")[0].time_tag == 1.0


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["bogus"])
    assert err.value.code == 2


def test_module_entry_point_runs_commands():
    done = run_module(["eval", "--n", "0"])
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "t,W"
    assert float(done.stdout.splitlines()[1].split(",")[1]) == pytest.approx(1 / math.pi)
    assert run_module(["eval", "--n", "-1"]).returncode == 2


def test_evolve_long_time_finishes():
    done = run_module(["evolve", "--n", "0", "--ell", "3", "--n-rho", "4", "--n-phi", "64",
                       "--t", "1e7"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(r"t=(\S+) steps=(\d+) max\|fd-exact\|=(\S+)", lines[0])
    assert match and float(match.group(1)) == 1e7
    dt = 0.5 * (2.0 * math.pi / 64)
    whole = math.floor(1e7 / dt + 1e-9)
    assert 1e7 - whole * dt > 1e-12  # a partial step runs
    assert int(match.group(2)) == whole + 1
    assert math.isfinite(float(match.group(3)))


def test_out_extension_sets_format(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert invoke(["grid", "--n-rho", "2", "--n-phi", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["params"]["n_phi"] == 16
    assert invoke(["evolve", "--n-rho", "2", "--n-phi", "16", "--t", "0.5",
                   "--out", str(tmp_path / "e.json")]) == 0
    capsys.readouterr()
    json.loads((tmp_path / "e.json").read_text())


@pytest.mark.parametrize("command", [
    ["grid"], ["evolve", "--t", "0.5"], ["figures"],
])
def test_format_contradicting_out_extension_is_usage_error(command, tmp_path, capsys):
    argv = command + ["--n-rho", "2", "--n-phi", "16", "--format", "csv",
                      "--out", str(tmp_path / "f.json")]
    assert invoke(argv) == 2
    assert "contradicts" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_grid_without_options_writes_the_parser_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PHASEWAVE_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert invoke(["grid"]) == 0
    assert capsys.readouterr().out.splitlines() == [os.path.join(".", "field.csv")]
    fld, meta = read_field(tmp_path / "field.csv")
    assert (meta["rho_max"], meta["n_rho"], meta["n_phi"]) == (4.5, 64, 128)
    assert meta["dt"] == math.pi / 128
    grid = GridSpec(rho_max=4.5, n_rho=64, n_phi=128, dt=math.pi / 128)
    export_field(sample_field(stationary_field(NATURAL_UNITS, 0), grid, 0.0, NATURAL_UNITS),
                 NATURAL_UNITS, "csv", tmp_path / "library.csv", extra={"n": 0})
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figures_equal_the_library_exports(fmt, tmp_path, capsys):
    assert invoke(["figures", "--rho-max", "3.5", "--n-rho", "6", "--n-phi", "32",
                   "--format", fmt, "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    grid = GridSpec(rho_max=3.5, n_rho=6, n_phi=32)
    period = spec.period(NATURAL_UNITS.omega)
    library = tmp_path / f"library.{fmt}"
    for n in (0, 5):
        W = standing_wave_field(NATURAL_UNITS, n, spec)
        for tag, t in (("0", 0.0), ("T4", period / 4.0), ("T2", period / 2.0)):
            export_field(sample_field(W, grid, t, NATURAL_UNITS), NATURAL_UNITS, fmt, library,
                         extra={"n": n, "ell": 3, "A": 2.0, "C": 5.0})
            cli = tmp_path / "cli" / f"wigner_n{n}_t{tag}.{fmt}"
            assert cli.read_bytes() == library.read_bytes(), cli.name


def test_grid_equals_the_library_export(tmp_path, capsys):
    assert invoke(["grid", "--n", "2", "--ell", "1", "--A", "0.4", "--C", "1.5", "--m", "1.7",
                   "--omega", "0.6", "--hbar", "0.3", "--alpha", "0.9", "--rho-max", "3",
                   "--n-rho", "6", "--n-phi", "16", "--dt", "0.01", "--t", "0,T/4",
                   "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    params = OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9)
    spec = StandingWaveSpec(ell=1, A=0.4, C=1.5)
    W = standing_wave_field(params, 2, spec)
    grid = GridSpec(rho_max=3.0, n_rho=6, n_phi=16, dt=0.01)
    library = tmp_path / "library.csv"
    for idx, t in enumerate((0.0, spec.period(params.omega) / 4.0)):
        export_field(sample_field(W, grid, t, params), params, "csv", library,
                     extra={"n": 2, "ell": 1, "A": 0.4, "C": 1.5})
        assert (tmp_path / "cli" / f"field_t{idx}.csv").read_bytes() == library.read_bytes()


# 66 rings of 1024 angles are two blocks, the second of two rings
@pytest.mark.parametrize("n_rho, n_phi", [(4, 64), (66, 1024)], ids=["one-block", "two-blocks"])
def test_evolve_equals_the_library_run(tmp_path, capsys, n_rho, n_phi):
    assert invoke(["evolve", "--n", "5", "--ell", "3", "--omega", "1.3", "--n-rho", str(n_rho),
                   "--n-phi", str(n_phi), "--t", "0,0.3,T/4", "--format", "json",
                   "--out", str(tmp_path / "cli")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("t=")]
    params = OscillatorParams(omega=1.3)
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    W = standing_wave_field(params, 5, spec)
    grid = GridSpec(rho_max=4.5, n_rho=n_rho, n_phi=n_phi,
                    dt=0.5 * (2.0 * math.pi / n_phi) / 1.3)
    start = sample_field(W, grid, 0.0, params)
    library = tmp_path / "library.json"
    for idx, t in enumerate((0.0, 0.3, spec.period(params.omega) / 4.0)):
        evolved = evolve_fd(start, params, t)
        exact = sample_field(propagate_exact(W, params, t), grid, t, params)
        err = float(np.max(np.abs(evolved.values - exact.values)))
        assert lines[idx] == f"t={t:.17g} steps={evolved.meta['steps']} max|fd-exact|={err:.6e}"
        export_field(evolved, params, "json", library,
                     extra={"n": 5, "ell": 3, "A": 2.0, "C": 5.0})
        assert (tmp_path / "cli" / f"evolved_t{idx}.json").read_bytes() == library.read_bytes()


def test_evolve_holds_a_few_blocks_and_no_grid(traced_peak, capsys):
    # the start values, their spectrum, the evolved values and the exact values
    # exist one block of rings at a time, a quarter of this grid each, beside
    # the previous block's evolved values
    argv = ["evolve", "--n", "5", "--ell", "3", "--n-rho", "256", "--n-phi", "1024",
            "--t", "3.0123,4.4567"]
    peak = traced_peak(lambda: invoke(argv))
    capsys.readouterr()
    assert peak < 1.5 * 256 * 1024 * 8, f"{peak / (256 * 1024 * 8):.2f} grids"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_out_holds_one_grid_and_blocks(traced_peak, capsys, tmp_path, fmt):
    # the stream samples and steps its blocks in the one exported grid, beside a
    # block's spectrum and a block of exact values; either writer then adds no
    # more than a ring's text
    argv = ["evolve", "--n", "5", "--ell", "3", "--n-rho", "256", "--n-phi", "1024",
            "--t", "3.0123,4.4567", "--format", fmt, "--out", str(tmp_path)]
    peak = traced_peak(lambda: invoke(argv))
    capsys.readouterr()
    assert peak < 2.0 * 256 * 1024 * 8, f"{peak / (256 * 1024 * 8):.2f} grids"


@pytest.mark.parametrize("n_rho", [256, 1024])
def test_evolve_memory_does_not_grow_with_the_rings(traced_peak, capsys, n_rho):
    argv = ["evolve", "--n", "5", "--ell", "3", "--n-rho", str(n_rho), "--n-phi", "1024",
            "--t", "0.7,T/4"]
    peak = traced_peak(lambda: invoke(argv))
    capsys.readouterr()
    assert peak < 3.5e6, f"{peak / 1e6:.2f} MB"


# every case puts a zero-step time among non-zero ones
@pytest.mark.parametrize("n_rho, n_phi, courant, times, bare", [
    (100, 1024, 0.5, (1.3, 0.0, 0.7), False),
    (2, 2**17, 0.5, (0.01, 0.0, 0.004), False),
    (100, 1024, 0.5, (0.0, 1.3, 0.0), False),
    (100, 1024, 1.0, (2.2, 0.0, 5.1), False),
    (100, 1024, 0.5, (0.0, 1.3, 0.7), True),
], ids=["partial-last-block", "ring-longer-than-a-block", "zero-steps", "courant-one",
        "bare-callable"])
def test_streamed_evolve_equals_evolve_fd_and_max_deviation(n_rho, n_phi, courant, times, bare):
    grid = GridSpec(rho_max=4.0, n_rho=n_rho, n_phi=n_phi, dt=courant * 2.0 * math.pi / n_phi)
    W = standing_wave_field(NATURAL_UNITS, 5, StandingWaveSpec(ell=3, A=2.0, C=5.0))
    if bare:  # the same field without polar_factors
        W = lambda x, p, t, field=W: field(x, p, t)
    start = sample_field(W, grid, 0.0, NATURAL_UNITS)
    # two calls at once, drawn in turn: neither sees the other's buffers; the
    # other steps its blocks in a whole grid, which then holds each time's field
    values = np.empty((n_rho, n_phi))
    streamed = _evolve_against_exact(W, grid, NATURAL_UNITS, times)
    other = _evolve_against_exact(W, grid, NATURAL_UNITS, times, values)
    for t, run, run_other in zip(times, streamed, other, strict=True):
        evolved = evolve_fd(start, NATURAL_UNITS, t)
        assert evolved.meta["courant"] == courant
        err = max_deviation_whole_grid(evolved, propagate_exact(W, NATURAL_UNITS, t),
                                       NATURAL_UNITS)
        assert run == run_other == (evolved.meta["steps"], err)
        assert values.tobytes() == evolved.values.tobytes()
    assert 0 in [evolve_fd(start, NATURAL_UNITS, t).meta["steps"] for t in times]


def test_non_finite_evolved_block_raises_before_its_exact_values_are_sampled():
    # 100 rings of 1024 angles are two blocks; every ring of the second lies past
    # rho = 2.6, where the start values overflow a ring's transform
    grid = GridSpec(rho_max=4.0, n_rho=100, n_phi=1024, dt=0.5 * 2.0 * math.pi / 1024)
    sampled = []

    def W(x, p, t):
        sampled.append(np.shape(x)[0])
        return np.where(x * x + p * p > 2.6**2, 1e308, 1.0)

    with pytest.raises(BlowupError, match="non-finite values after 1 upwind steps"):
        list(_evolve_against_exact(W, grid, NATURAL_UNITS, [0.5 * grid.dt]))
    # the start and exact values of the first block, then the start values of the second
    assert sampled == [64, 64, 36]


def test_evolve_prints_each_time_before_the_next_blows_up(capsys):
    # t = 0 takes no step and passes; any step overflows the ring sums of these values
    argv = ["evolve", "--hbar", "1e-306", "--rho-max", "1e-153", "--n-rho", "4",
            "--n-phi", "1024", "--t", "0,0.5"]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "t=0 steps=0 max|fd-exact|=0.000000e+00\n"
    assert captured.err == "phasewave: blowup: non-finite values after 163 upwind steps\n"


def test_evolve_blowup_is_reported_without_a_traceback(capsys):
    # values near 1 / (pi hbar) = 3e305 overflow the sum of a ring of 1024
    argv = ["evolve", "--hbar", "1e-306", "--rho-max", "1e-153", "--n-rho", "4",
            "--n-phi", "1024", "--t", "0.5"]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "phasewave: blowup: non-finite values after 163 upwind steps\n"


def test_only_the_commands_that_write_a_time_step_take_one(capsys):
    # figures writes no dt line, so a --dt would be ignored
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["figures", "--dt", "0.1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --dt 0.1" in capsys.readouterr().err
    for command in ("grid", "evolve"):
        assert build_parser().parse_args([command, "--dt", "0.1"]).dt == 0.1


def test_grid_whose_outermost_node_overflows_is_usage_error(tmp_path, capsys):
    argv = ["grid", "--rho-max", "1e308", "--n-rho", "4", "--n-phi", "4",
            "--out", str(tmp_path / "w.csv")]
    assert invoke(argv) == 2
    assert "rho_max = 1e+308" in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


def test_out_under_a_regular_file_is_an_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    argv = ["grid", "--n-rho", "2", "--n-phi", "4", "--out", str(tmp_path / "file" / "sub")]
    assert invoke(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"phasewave: i/o error: .*\n", captured.err)


def test_accuracy_shortfall_is_reported_without_a_traceback(monkeypatch, capsys):
    def fails():
        raise AccuracyError("no estimate under the tolerance")

    monkeypatch.setitem(verify.SUITES, "stationary_normalization", (fails, False))
    assert invoke(["check", "--suite", "stationary_normalization"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "phasewave: accuracy error: no estimate under the tolerance\n"


@pytest.mark.parametrize("message, line", [
    # numpy's refusal of an array past memory, and Python's own, which says nothing
    ("Unable to allocate 728. TiB for an array with shape (10000000, 10000000)",
     "Unable to allocate 728. TiB for an array with shape (10000000, 10000000)"),
    ("", "the request does not fit"),
], ids=["numpy", "python"])
def test_out_of_memory_is_reported_without_a_traceback(monkeypatch, capsys, message, line):
    # raised by a stand-in, so nothing is allocated
    def refuses(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample_field", refuses)
    assert invoke(["grid", "--n-rho", "10000000", "--n-phi", "10000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"phasewave: out of memory: {line}\n"
