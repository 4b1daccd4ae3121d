"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import env

env.isolate()

import phasewave  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _bench(root, *args):
    return subprocess.run([sys.executable, str(Path(root) / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _bench(env.ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def _namespaces():
    """Identity of every binding the tracer may patch."""
    seen = {}
    for name, mod in sys.modules.items():
        if name == "phasewave" or name.startswith("phasewave."):
            for key, value in vars(mod).items():
                seen[(name, key)] = id(value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        seen[(name, key, k)] = id(v)
    for cls in (phasewave.StationaryWigner, phasewave.StandingWaveWigner, phasewave.ExtendedWigner):
        seen[(cls.__name__, "__call__")] = id(vars(cls)["__call__"])
    return seen


def test_tracer_patches_where_names_are_looked_up_and_restores_them():
    before = _namespaces()
    original = phasewave.quadrature.laguerre
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert phasewave.quadrature.laguerre is not original
        assert phasewave.wigner.laguerre is phasewave.special.laguerre
        assert phasewave.cli.sample_field is phasewave.gridio.sample_field
        assert phasewave.verify.SUITES["energy_spectrum"][0] is phasewave.verify.check_energy_spectrum
        W = phasewave.stationary_field(phasewave.NATURAL_UNITS, 2)
        phasewave.phase_space_integral(W, phasewave.NATURAL_UNITS)
    finally:
        tracer.uninstall()
    assert _namespaces() == before
    self_s, calls, counts = tracer.totals()
    assert calls["quadrature.disk"] == 1
    assert counts["quadrature.disk.field_points"] == 256 * 256 + 512 * 512
    assert calls["wigner.field"] == 2 and calls["special.laguerre"] == 2
    assert min(tracer.self_times()) >= 0.0


def _cli_ok(op, **fields):
    return {"op": op, "s": 0.0, "error": None, "status": 0, "stderr": "", **fields}


def test_checks_fail_wrong_verify_reports_and_evolve_errors():
    verify = workloads.Verify(1, False)
    assert verify.check([_cli_ok("check", checks=13, passed=13)]) == []
    assert len(verify.check([_cli_ok("check", checks=13, passed=12)])) == 1
    assert len(verify.check([_cli_ok("check", checks=12, passed=12)])) == 1

    # The largest error the seed code reports passes; the wave's amplitude,
    # which a solver that loses the standing-wave term is off by, fails.
    for smoke, seed_err, amplitude in ((False, 0.080, 0.254), (True, 0.032, 0.102)):
        evolve = workloads.Evolve(1, smoke)
        results = [[[t, 1, err] for t in evolve.times] for err in (seed_err, amplitude)]
        assert evolve.check([_cli_ok("evolve", results=results[0])]) == []
        assert len(evolve.check([_cli_ok("evolve", results=results[1])])) == 1
    good = [[t, 1, 0.05] for t in evolve.times]
    assert len(evolve.check([_cli_ok("evolve", results=good[:1])])) == 1
    assert len(evolve.check([{"op": "evolve", "s": 0.0, "error": "ValueError: x"}])) == 1


def test_checks_fail_changed_exports_and_inexact_reads(tmp_path):
    export = workloads.Export(3, True)
    export.prepare()
    outcome = export.outcome(export.run(str(tmp_path)), str(tmp_path))
    assert export.check(outcome) == []
    assert export.check(outcome) == []

    changed = json.loads(json.dumps(outcome))
    changed[2]["files"]["grid.csv"] = "0" * 64
    read = next(o for o in changed if o["op"] == "read grid.csv")
    read["values"] = "0" * 64
    assert len(export.check(changed)) == 2

    again = str(tmp_path / "again")
    os.mkdir(again)
    ops = export.run(again)
    os.remove(os.path.join(again, "json", "wigner_n5_tT2.json"))
    assert len(export.check(export.outcome(ops, again))) == 1
