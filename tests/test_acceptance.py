"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test delegates to the corresponding verification check (the same code
the ``phasewave check`` command runs) and prints one pass/fail line; run
with ``pytest -s tests/test_acceptance.py`` to see the lines.  The last
tests pin which checks take a tolerance and which tolerances they accept.
"""

import dataclasses
import math

import pytest

from phasewave import DataError, evolution, verify

#: The checks declared with a fixed tolerance, and that tolerance.
FIXED = {"positivity_edge": 0.0, "residual_discrimination": 3.5, "solver_convergence": 0.2,
         "running_wave_rejection": 1e-3}


def _run(fn, **kwargs):
    result = fn(**kwargs)
    print()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_stationary_normalization_within_1e8():
    _run(verify.check_stationary_normalization, tol=1e-8)


def test_criterion_02_extended_normalization_within_1e10():
    _run(verify.check_extended_normalization, tol=1e-10)


def test_criterion_03_marginal_matrix_within_1e6():
    _run(verify.check_marginal_identities, tol=1e-6)


def test_criterion_04_energy_spectrum_within_1e6():
    _run(verify.check_energy_spectrum, tol=1e-6)


def test_criterion_05_laguerre_moment_identity_within_1e9():
    _run(verify.check_laguerre_moment_identity, tol=1e-9)


def test_criterion_06_transform_oracle_agreement_within_1e7():
    _run(verify.check_transform_oracle_agreement, tol=1e-7)


def test_criterion_07_node_antinode_structure_within_1e12():
    _run(verify.check_node_antinode_structure, tol=1e-12)


def test_criterion_08_snapshot_identities_within_1e12():
    _run(verify.check_snapshot_identities, tol=1e-12)


def test_criterion_09_positivity_edge():
    _run(verify.check_positivity_edge)


def test_criterion_10_residual_discrimination():
    _run(verify.check_residual_discrimination)


def test_criterion_11_solver_convergence_order():
    _run(verify.check_solver_convergence)


def test_criterion_11_rejects_a_half_speed_solver(monkeypatch):
    solver = evolution._upwind_run
    runs = []

    def half_speed(grid, params, t_start, t_final):
        runs.append(grid.n_phi)
        return solver(grid, dataclasses.replace(params, omega=params.omega / 2.0), t_start,
                      t_final)

    monkeypatch.setattr(evolution, "_upwind_run", half_speed)
    assert not verify.check_solver_convergence().passed
    assert runs == [128, 256, 512]  # the injected solver ran once per grid


def test_criterion_12_running_wave_rejected():
    _run(verify.check_running_wave_rejection)


def test_criterion_13_moyal_degeneration_within_1e6():
    _run(verify.check_moyal_degeneration, tol=1e-6)


def _takes_tol():
    return [check for check, takes_tol in verify.SUITES.values() if takes_tol]


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0, True])
def test_every_check_refuses_a_tolerance_that_is_not_finite_and_positive(tol):
    for check in _takes_tol():
        with pytest.raises(DataError, match="^tolerance must be finite and positive"):
            check(tol=tol)


def test_every_check_refuses_a_text_tolerance():
    for check in _takes_tol():
        with pytest.raises(TypeError, match="^tolerance must be real"):
            check(tol="1e-3")


def test_the_override_reaches_exactly_the_checks_declared_with_a_default():
    report = verify.run_suite(tol_override=0.5)
    assert report.passed and len(report.checks) == 13
    assert {c.name: c.tolerance for c in report.checks} == \
        {name: FIXED.get(name, 0.5) for name in verify.SUITES}
    assert [name for name, (_, takes_tol) in verify.SUITES.items() if not takes_tol] == list(FIXED)
    for name in FIXED:
        with pytest.raises(TypeError):
            verify.SUITES[name][0](tol=0.5)
