"""Stored SHA-256 digests of the exports and reports of a few small CLI and library runs.

The CLI promises that identical configurations give byte-identical output;
these digests hold that promise from one version of the code to the next.
numpy's SIMD ``exp`` and ``sin`` can move last bits between numpy builds and
machines, so ``golden/digests.json`` records the numpy version and machine
the digests were made on, and a mismatch names both beside the running ones.

A change that moves bytes on purpose regenerates the digests with
``PYTHONPATH=src python tests/test_golden.py`` and names the file and the cause
in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from phasewave import (NATURAL_UNITS, GridSpec, OscillatorParams, StandingWaveSpec, export_field,
                       extended_field, running_wave_profile, sample_field, standing_wave_field)
from phasewave.cli import build_parser, run

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

#: name -> argv; ``_outputs`` adds ``--out`` to every command but eval
RUNS = {
    "figures-csv": ["figures", "--n-rho", "6", "--n-phi", "16", "--format", "csv"],
    "figures-json": ["figures", "--n-rho", "6", "--n-phi", "16", "--format", "json"],
    "grid-n64": ["grid", "--n", "64", "--ell", "3"],
    "grid-units": ["grid", "--n", "3", "--ell", "2", "--alpha", "0.7", "--m", "2.5",
                   "--omega", "0.8", "--hbar", "0.3", "--n-rho", "16", "--n-phi", "32",
                   "--t", "0,T/4", "--format", "json"],
    "grid-units-csv": ["grid", "--n", "3", "--ell", "2", "--alpha", "0.7", "--m", "2.5",
                       "--omega", "0.8", "--hbar", "0.3", "--n-rho", "16", "--n-phi", "32",
                       "--t", "0,T/4", "--format", "csv"],
    "evolve": ["evolve", "--n", "1", "--ell", "2", "--n-rho", "8", "--n-phi", "32",
               "--t", "0.5,T/4"],
    "eval-csv": ["eval", "--n", "2", "--ell", "3", "--x", "0.7", "--p", "-1.1",
                 "--t", "0,T/4,0.3"],
    "eval-json": ["eval", "--n", "2", "--ell", "3", "--x", "0.7", "--p", "-1.1",
                  "--t", "0,T/4,0.3", "--format", "json"],
    "check": ["check", "--suite", "all"],
}




def _running_wave(out_dir):
    """A general ``WaveProfile`` field in general units, made by the library, not the CLI.

    Its ``sample_field`` CSV exports at two times, and its values at a few
    points, the origin x = -shift, p = 0 among them, as ``%.17g`` text.
    """
    params = OscillatorParams(m=2.5, omega=0.8, hbar=0.3, alpha=0.7)
    profile = running_wave_profile(0.4, 1, 2)
    W = extended_field(params, 3, profile)
    times = (0.0, 0.25 * 2.0 * np.pi / profile.omega_wave(params.omega))
    grid = GridSpec(rho_max=1.5, n_rho=16, n_phi=32)
    outputs = {}
    for k, t in enumerate(times):
        path = Path(out_dir) / f"field_t{k}.csv"
        export_field(sample_field(W, grid, t, params), params, "csv", path)
        outputs[path.name] = path.read_bytes()
    x = np.array([-params.shift, 0.0, 0.4, -0.9, -params.shift])
    p = np.array([0.0, 0.0, -0.35, 0.6, 0.5])
    lines = [f"{xi:.17g} {pi:.17g} {t:.17g} {v:.17g}"
             for t in times for xi, pi, v in zip(x, p, W(x, p, t))]
    outputs["values.txt"] = ("\n".join(lines) + "\n").encode("ascii")
    return outputs


#: name -> a function of an output directory giving the bytes the library leaves, by file name
LIBRARY = {"extended-running-units": _running_wave}


def _without_runtimes(node):
    if isinstance(node, dict):
        return {k: _without_runtimes(v) for k, v in node.items() if k != "runtime_s"}
    if isinstance(node, list):
        return [_without_runtimes(v) for v in node]
    return node


def _outputs(name, out_dir):
    """The bytes a run leaves, by key ``<run>/<stdout or file name>``.

    The output directory's path is written as OUT in stdout.  ``check``
    keeps only its JSON report, with every ``runtime_s`` removed, since
    its stdout prints the runtimes too.  A ``LIBRARY`` entry gives its own.
    """
    if name in LIBRARY:
        return {f"{name}/{key}": data for key, data in LIBRARY[name](out_dir).items()}
    argv, out_dir = RUNS[name], Path(out_dir)
    report = out_dir / "report.json"
    if argv[0] != "eval":
        argv = [*argv, "--out", str(report if argv[0] == "check" else out_dir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = run(build_parser().parse_args(argv))
    assert status == 0, f"{name} exited {status}"
    if argv[0] == "check":
        doc = _without_runtimes(json.loads(report.read_text(encoding="ascii")))
        return {f"{name}/report.json": (json.dumps(doc, indent=1) + "\n").encode("ascii")}
    outputs = {f"{name}/stdout": stdout.getvalue().replace(str(out_dir), "OUT").encode("ascii")}
    for path in sorted(out_dir.iterdir()):
        outputs[f"{name}/{path.name}"] = path.read_bytes()
    return outputs


def _digests(outputs):
    return {key: hashlib.sha256(data).hexdigest() for key, data in outputs.items()}


def _recorded():
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def _mismatches(digests, recorded):
    """One line per key whose digest differs from ``recorded``'s, naming both environments."""
    where = (f"recorded on numpy {recorded['numpy']} / {recorded['machine']}, running on "
             f"numpy {np.__version__} / {platform.machine()}")
    want = recorded["digests"]
    return [f"{key}: digest {got} != recorded {want.get(key)} ({where})"
            for key, got in digests.items() if want.get(key) != got]


@pytest.mark.parametrize("name", [*RUNS, *LIBRARY])
def test_every_output_keeps_its_recorded_bytes(name, tmp_path):
    digests = _digests(_outputs(name, tmp_path))
    recorded = _recorded()
    assert sorted(digests) == sorted(k for k in recorded["digests"] if k.startswith(f"{name}/"))
    assert _mismatches(digests, recorded) == []


def test_a_one_ulp_change_in_one_value_fails_its_digest(tmp_path):
    # the first file of figures-csv, sampled and exported by the library as the CLI does
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    fld = sample_field(standing_wave_field(NATURAL_UNITS, 0, spec),
                       GridSpec(rho_max=4.5, n_rho=6, n_phi=16), 0.0, NATURAL_UNITS)
    key = "figures-csv/wigner_n0_t0.csv"
    extra = {"n": 0, "ell": 3, "A": 2.0, "C": 5.0}
    path = tmp_path / "field.csv"
    recorded = _recorded()
    export_field(fld, NATURAL_UNITS, "csv", path, extra=extra)
    assert _mismatches({key: hashlib.sha256(path.read_bytes()).hexdigest()}, recorded) == []
    fld.values[2, 5] = np.nextafter(fld.values[2, 5], np.inf)
    export_field(fld, NATURAL_UNITS, "csv", path, extra=extra)
    found = _mismatches({key: hashlib.sha256(path.read_bytes()).hexdigest()}, recorded)
    assert len(found) == 1 and key in found[0]
    assert f"recorded on numpy {recorded['numpy']} / {recorded['machine']}" in found[0]
    assert f"running on numpy {np.__version__} / {platform.machine()}" in found[0]


if __name__ == "__main__":
    import tempfile

    digests = {}
    for run_name in [*RUNS, *LIBRARY]:
        with tempfile.TemporaryDirectory() as tmp:
            digests.update(_digests(_outputs(run_name, tmp)))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "machine": platform.machine(),
                                  "digests": digests}, indent=1) + "\n", encoding="ascii")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
