"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test delegates to the corresponding verification check (the same code
the ``phasewave check`` command runs) and prints one pass/fail line; run
with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import dataclasses

from phasewave import verify


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
    solver = verify.evolve_fd

    def half_speed(field0, params, t_final):
        return solver(field0, dataclasses.replace(params, omega=params.omega / 2.0), t_final)

    monkeypatch.setattr(verify, "evolve_fd", half_speed)
    assert not verify.check_solver_convergence().passed


def test_criterion_12_running_wave_rejected():
    _run(verify.check_running_wave_rejection, threshold=1e-3)


def test_criterion_13_moyal_degeneration_within_1e6():
    _run(verify.check_moyal_degeneration, tol=1e-6)
