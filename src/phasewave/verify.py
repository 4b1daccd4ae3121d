"""Numerical verification suite.

Every analytic identity the library claims is re-derived numerically here:
normalization and mean energy by phase-space quadrature, marginal
identities by line quadrature against the closed-form densities, node and
snapshot geometry of the standing wave, residual behaviour of sampled
fields under the transport and membrane wave equations, and the
degeneration of the quantum transport series for quadratic potentials.
Each check returns a machine-readable result with its target, tolerance
and runtime; a report is produced whether or not the checks pass.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .errors import _real
from .evolution import (GridSpec, PolynomialPotential, _max_deviation, _sampled_blocks,
                        evolve_fd, moyal_rhs, propagate_exact, transport_residual,
                        wave_residual)
from .extended import (StandingWaveSpec, WaveProfile, antinode_angles, check_parity,
                       extended_field, node_angles, normalization, running_wave_profile,
                       standing_wave_field)
from .gridio import sample_field
from .oscillator import NATURAL_UNITS, polar_from_xy, xy_from_polar
from .quadrature import (laguerre_energy_identity, marginal_over_p, marginal_over_x,
                         mean_energy, phase_space_integral)
from .wigner import (momentum_density, position_density, radial_kernel, stationary_field,
                     wigner_from_wavefunction)


@dataclass(kw_only=True)
class CheckResult:
    """One verification outcome with provenance of its target value.

    ``name`` and ``runtime_s`` are filled in by the registered check.
    """

    name: str = ""
    provenance: str
    target: str
    computed: str
    tolerance: float
    passed: bool
    runtime_s: float = 0.0
    details: dict = dc_field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: target {self.target}, got {self.computed} "
                f"(tol {self.tolerance:g}, {self.runtime_s:.2f}s)")


@dataclass
class VerificationReport:
    checks: list

    @property
    def passed(self) -> bool:
        """True when the report holds checks and every one passed; no checks prove nothing."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def lines(self):
        out = [c.line() for c in self.checks]
        out.append(f"{'ALL CHECKS PASSED' if self.passed else 'CHECK FAILURES PRESENT'} "
                   f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        return out

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


#: Check registry in definition order: name -> (check, accepts a tolerance override).
SUITES = {}


def _check(body):
    """Register ``body`` as the suite check named after it, without ``check_``.

    The registered check times ``body`` and stamps the name and runtime on
    the ``CheckResult`` it returns; it accepts a tolerance override when
    ``body`` has a ``tol`` parameter.
    """
    name = body.__name__.removeprefix("check_")

    @functools.wraps(body)
    def check(*args, **kwargs):
        t0 = time.perf_counter()
        result = body(*args, **kwargs)
        result.name, result.runtime_s = name, time.perf_counter() - t0
        return result

    SUITES[name] = (check, "tol" in inspect.signature(body).parameters)
    return check


@_check
def check_stationary_normalization(tol: float = 1e-8) -> CheckResult:
    """Phase-space integral of every stationary state equals 1."""
    params = NATURAL_UNITS
    devs = {}
    for n in range(9):
        val = phase_space_integral(stationary_field(params, n), params)
        devs[n] = abs(val - 1.0)
    worst = max(devs.values())
    return CheckResult(
        provenance="quasi-probability densities integrate to 1 (exact)",
        target="1 for n = 0..8",
        computed=f"max |integral - 1| = {worst:.3e}",
        tolerance=tol, passed=worst < tol,
        details={"deviation_by_n": {str(k): v for k, v in devs.items()}},
    )


@_check
def check_extended_normalization(tol: float = 1e-10) -> CheckResult:
    """Computed normalization of the standing wave equals 1/C."""
    worst = 0.0
    cases = {}
    for ell in (1, 2, 3):
        for C in (1.0, 5.0):
            spec = StandingWaveSpec(ell=ell, A=2.0, C=C)
            dev = abs(normalization(spec.to_profile()) - 1.0 / C)
            cases[f"ell={ell},C={C:g}"] = dev
            worst = max(worst, dev)
    return CheckResult(
        provenance="counter-propagating sine pair has zero angular mean, so N = 1/C",
        target="N = 1/C for ell in {1,2,3}, C in {1,5}",
        computed=f"max |N - 1/C| = {worst:.3e}",
        tolerance=tol, passed=worst < tol, details=cases,
    )


@_check
def check_marginal_identities(tol: float = 1e-6) -> CheckResult:
    """Marginals of the standing-wave family reproduce the eigenstate densities."""
    params = NATURAL_UNITS
    pts = np.linspace(-3.0, 3.0, 21)
    worst = 0.0
    worst_case = ""
    for n in (0, 1, 5):
        for ell in (1, 3):
            spec = StandingWaveSpec(ell=ell, A=0.4, C=1.0)
            W = standing_wave_field(params, n, spec)
            T = spec.period(params.omega)
            times = (0.0, T / 8.0, T / 4.0, T / 2.0)
            column = np.array(times)[:, None]  # one batch of lines per axis; rows are times
            devs = {axis: np.abs(marginal(W, params, pts, column)
                                 - density(params, n, pts)).tolist()
                    for axis, marginal, density in (("x", marginal_over_p, position_density),
                                                    ("p", marginal_over_x, momentum_density))}
            for row, t in enumerate(times):
                for axis in ("x", "p"):
                    for v, dev in zip(pts, devs[axis][row]):
                        if dev > worst:
                            worst, worst_case = dev, f"n={n},ell={ell},t={t:.4g},{axis}={v:g}"
    return CheckResult(
        provenance="odd angular factor averages to zero against the even kernel",
        target="marginals match |Psi_n|^2 and |Psi~_n|^2 at 21 points each",
        computed=f"max deviation = {worst:.3e} at {worst_case}",
        tolerance=tol, passed=worst < tol,
        details={"amplitude_ratio_A_over_C": 0.4, "worst_case": worst_case},
    )


@_check
def check_energy_spectrum(tol: float = 1e-6) -> CheckResult:
    """Mean energy is n + 1/2 and time independent for the standing wave."""
    params = NATURAL_UNITS
    worst = 0.0
    details = {}
    for n in range(9):
        val = mean_energy(stationary_field(params, n), params)
        details[f"stationary n={n}"] = val
        worst = max(worst, abs(val - (n + 0.5)))
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    T = spec.period(params.omega)
    for n in (0, 5):
        vals = [mean_energy(standing_wave_field(params, n, spec), params, t)
                for t in (0.0, T / 8.0, T / 4.0, T / 2.0)]
        details[f"standing n={n}"] = vals
        worst = max(worst, max(abs(v - (n + 0.5)) for v in vals))
        worst = max(worst, max(vals) - min(vals))
    return CheckResult(
        provenance="oscillator levels n + 1/2 in units of hbar*omega (closed form)",
        target="mean energy = n + 1/2, time independent",
        computed=f"max deviation/spread = {worst:.3e}",
        tolerance=tol, passed=worst < tol, details=details,
    )


@_check
def check_laguerre_moment_identity(tol: float = 1e-9) -> CheckResult:
    """Quadrature of exp(-2e) L_n(4e) e over [0, inf) equals (-1)^n (2n+1)/4."""
    worst = 0.0
    for n in range(9):
        val = laguerre_energy_identity(n)
        exact = (-1.0) ** n * (2 * n + 1) / 4.0
        worst = max(worst, abs(val - exact))
    return CheckResult(
        provenance="closed-form Gaussian-Laguerre moment (-1)^n (2n+1)/4",
        target="identity holds for n = 0..8",
        computed=f"max deviation = {worst:.3e}",
        tolerance=tol, passed=worst < tol,
    )


@_check
def check_transform_oracle_agreement(tol: float = 1e-7) -> CheckResult:
    """Fourier-transform construction agrees with the closed form on a grid."""
    params = NATURAL_UNITS
    pts = np.linspace(-3.0, 3.0, 9)
    worst = 0.0
    for n in (0, 1, 2, 3, 5):  # one 9x9 batch per order: the lines' windows follow x
        transform = wigner_from_wavefunction(params, n, pts[:, None], pts)
        closed = stationary_field(params, n)(pts[:, None], pts)
        worst = max(worst, float(np.max(np.abs(transform - closed))))
    return CheckResult(
        provenance="independent eigenfunction Fourier transform of the same state",
        target="agreement on a 9x9 grid for n in {0,1,2,3,5}",
        computed=f"max |transform - closed form| = {worst:.3e}",
        tolerance=tol, passed=worst < tol,
    )


@_check
def check_node_antinode_structure(tol: float = 1e-12) -> CheckResult:
    """Node lines pin the stationary values; antinodes maximize the deviation."""
    params = NATURAL_UNITS
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    T = spec.period(params.omega)
    x, p = xy_from_polar(params, np.array([0.4, 0.9, 1.6, 2.4])[:, None], node_angles(spec))
    times = np.array([0.0, T / 8.0, T / 3.0, 0.77 * T])[:, None, None]
    worst_node = 0.0
    for n in (0, 5):
        W = standing_wave_field(params, n, spec)
        stationary = stationary_field(params, n)(x, p)
        worst_node = max(worst_node, float(np.max(np.abs(W(x, p, times) - stationary))))

    # antinode extremality at t = 0 on a dense angular grid
    phis = 2.0 * math.pi * np.arange(720) / 720
    anti = antinode_angles(spec)
    anti_idx = np.rint(anti / (2.0 * math.pi / 720)).astype(int)
    extremal_ok = True
    margin = math.inf
    for n in (0, 5):
        for rho in (0.7, 1.1):
            kern = radial_kernel(params, n, rho)
            diff = np.abs(kern * (2.0 * spec.A / spec.C) * np.sin(2 * spec.ell * phis))
            top = diff.max()
            if np.any(np.abs(diff[anti_idx] - top) > 1e-12 * max(1.0, top)):
                extremal_ok = False
            mask = np.ones(720, dtype=bool)
            for j in anti_idx:
                mask[max(j - 1, 0):j + 2] = False
            margin = min(margin, float(top - diff[mask].max()))
    return CheckResult(
        provenance="standing-wave factor vanishes at nodes, is extremal at antinodes",
        target="node values match the stationary state; antinodes attain the max deviation",
        computed=f"max node deviation = {worst_node:.3e}, antinode max attained: {extremal_ok}",
        tolerance=tol, passed=worst_node < tol and extremal_ok and margin > 0.0,
        details={"margin_to_next_best_angle": margin},
    )


@_check
def check_snapshot_identities(tol: float = 1e-12) -> CheckResult:
    """Quarter-period snapshots equal the stationary state; full period repeats."""
    params = NATURAL_UNITS
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    T = spec.period(params.omega)
    grid = GridSpec(rho_max=4.5, n_rho=48, n_phi=96)
    worst_quarter = 0.0
    worst_period = 0.0
    for n in (0, 5):
        W = standing_wave_field(params, n, spec)
        Wn = stationary_field(params, n)
        ref = sample_field(Wn, grid, 0.0, params).values
        for t in (T / 4.0, 3.0 * T / 4.0):
            got = sample_field(W, grid, t, params).values
            worst_quarter = max(worst_quarter, float(np.max(np.abs(got - ref))))
        at0 = sample_field(W, grid, 0.0, params).values
        atT = sample_field(W, grid, T, params).values
        worst_period = max(worst_period, float(np.max(np.abs(atT - at0))))
    return CheckResult(
        provenance="cos(Omega t) vanishes at quarter periods and repeats after T",
        target="quarter-period snapshots = stationary state; t=0 and t=T bitwise equal",
        computed=f"quarter dev = {worst_quarter:.3e}, period dev = {worst_period:.3e}",
        tolerance=tol, passed=worst_quarter < tol and worst_period == 0.0,
    )


@_check
def check_positivity_edge() -> CheckResult:
    """Ground-state minimum flips sign exactly when 2A/C crosses 1.

    The minimum over the 512 x 512 grid is taken block by block: it is
    exact, so it has the bits of the whole grid's.
    """
    params = NATURAL_UNITS
    grid = GridSpec(rho_max=4.0, n_rho=512, n_phi=512)
    mins = {}
    for A in (2.0, 3.0):
        spec = StandingWaveSpec(ell=3, A=A, C=5.0)
        W = standing_wave_field(params, 0, spec)
        mins[A] = min(float(values.min()) for _, values in _sampled_blocks(W, grid, 0.0, params))
    return CheckResult(
        provenance="bracket 1 + (2A/C) sin stays positive iff 2A/C < 1",
        target="min >= 0 for A=2, C=5; min < 0 for A=3, C=5 (ell=3, ground state)",
        computed=f"min(A=2) = {mins[2.0]:.3e}, min(A=3) = {mins[3.0]:.3e}",
        tolerance=0.0, passed=mins[2.0] >= 0.0 and mins[3.0] < 0.0,
    )


def _residual_maxima(params, field_factory, resolutions, t_center):
    wave_max, transport_max = [], []
    for n_phi, dt_step in resolutions:
        grid = GridSpec(rho_max=4.0, n_rho=24, n_phi=n_phi, dt=dt_step)
        fields = [sample_field(field_factory, grid, t_center + k * dt_step, params)
                  for k in (-1, 0, 1)]
        wave_max.append(float(np.max(np.abs(wave_residual(fields, params).values))))
        transport_max.append(float(np.max(np.abs(transport_residual(fields, params).values))))
    return wave_max, transport_max


@_check
def check_residual_discrimination() -> CheckResult:
    """Standing wave solves the membrane equation but not one-way transport.

    The two-chirality standing wave satisfies the second-order membrane
    equation (wave residual refines to zero at second order) while its
    counter-propagating component violates the first-order transport
    equation (transport residual converges to a nonzero smooth limit).  A
    single-chirality wave satisfies both.  The suite reports both residuals
    rather than deciding which equation should govern.
    """
    params = NATURAL_UNITS
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    T = spec.period(params.omega)
    resolutions = []
    for n_phi in (64, 128, 256):
        dphi = 2.0 * math.pi / n_phi
        resolutions.append((n_phi, 0.5 * dphi / params.omega))
    standing = standing_wave_field(params, 0, spec)
    ws, ts = _residual_maxima(params, standing, resolutions, 0.3 * T)

    single_profile = WaveProfile(f=lambda th: 0.5 * np.sin(th), g=lambda th: 0.0,
                                 C=1.0, kappa=6)
    single = extended_field(params, 0, single_profile)
    w1, t1 = _residual_maxima(params, single, resolutions, 0.3 * T)

    wave_ok = ws[0] / ws[1] >= 3.5 and ws[1] / ws[2] >= 3.5
    transport_persists = ts[2] > 0.1 * ts[0]
    single_ok = (w1[0] / w1[1] >= 3.5 and w1[1] / w1[2] >= 3.5
                 and t1[0] / t1[1] >= 3.5 and t1[1] / t1[2] >= 3.5)
    return CheckResult(
        provenance="two-chirality sums solve the membrane equation only; "
                   "single chirality solves both",
        target="wave residual shrinks >= 3.5x per refinement; transport residual persists",
        computed=(f"wave ratios {ws[0]/ws[1]:.2f}, {ws[1]/ws[2]:.2f}; "
                  f"transport fine/coarse = {ts[2]/ts[0]:.3f}"),
        tolerance=3.5, passed=wave_ok and transport_persists and single_ok,
        details={
            "standing_wave_residual": ws,
            "standing_transport_residual": ts,
            "single_chirality_wave_residual": w1,
            "single_chirality_transport_residual": t1,
        },
    )


@_check
def check_solver_convergence() -> CheckResult:
    """Upwind solver converges to the exact rotation at first order.

    The run stops at 0.37 of a period: after a whole period (or a half, for
    the kappa = 2 wave) the exact rotation maps the wave onto itself, so a
    solver that turns at the wrong speed would also converge there.
    """
    params = NATURAL_UNITS
    kappa = 2

    def W0(x, p, t=0.0):
        rho, phi = polar_from_xy(params, x, p)
        return radial_kernel(params, 0, rho) * np.sin(kappa * phi)

    t_final = 0.37 * 2.0 * math.pi / params.omega
    errors = []
    # 64 angular nodes is still pre-asymptotic for the accumulated
    # upwind diffusion; start at 128.
    for n_phi in (128, 256, 512):
        dphi = 2.0 * math.pi / n_phi
        grid = GridSpec(rho_max=4.0, n_rho=16, n_phi=n_phi, dt=0.5 * dphi / params.omega)
        start = sample_field(W0, grid, 0.0, params)
        evolved = evolve_fd(start, params, t_final)
        errors.append(_max_deviation(evolved, propagate_exact(W0, params, t_final), params))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(2)]
    return CheckResult(
        provenance="first-order upwind truncation analysis",
        target="observed order in [0.8, 1.2] across three grids over 0.37 of a period",
        computed=f"orders = {orders[0]:.3f}, {orders[1]:.3f}",
        tolerance=0.2, passed=all(0.8 <= o <= 1.2 for o in orders),
        details={"errors": errors},
    )


@_check
def check_running_wave_rejection() -> CheckResult:
    """A single running cosine wave fails parity and breaks the marginals.

    Measured with n = 0, kappa = 2, A/C = 0.4, t = 0 at 21 sample points
    x in [-3, 3]; the 1e-3 deviation floor is a measured property of this
    configuration (brute-force scans put the actual deviation near 4e-2),
    not an analytic constant.
    """
    params = NATURAL_UNITS
    profile = running_wave_profile(A=0.4, C=1.0, kappa=2)
    report = check_parity(params, profile)
    W = extended_field(params, 0, profile)
    # the x = 0 line crosses the origin, where this profile is genuinely
    # discontinuous (its angular factor has no node on the axes), so the
    # line quadrature cannot converge there; every other line is smooth
    xs = np.linspace(-3.0, 3.0, 21)
    xs = xs[np.abs(xs) >= 1e-9]
    worst = float(np.max(np.abs(marginal_over_p(W, params, xs, 0.0)
                                - position_density(params, 0, xs))))
    return CheckResult(
        provenance="even-in-p cosine chirality violates the oddness hypothesis",
        target="parity check fails and marginal deviation exceeds 0.001",
        computed=(f"parity passed = {report.passed}, max marginal deviation = {worst:.3e}"),
        tolerance=1e-3, passed=(not report.passed) and worst > 1e-3,
        details={"parity_violation_xbar": report.max_violation_xbar,
                 "parity_violation_p": report.max_violation_p},
    )


class _MustNotEvaluate:
    """Field stand-in proving that no derivative is taken for quadratic potentials."""

    def __call__(self, *args):
        raise AssertionError("field evaluated for a quadratic potential")


@_check
def check_moyal_degeneration(tol: float = 1e-6) -> CheckResult:
    """Quantum transport series vanishes for quadratic potentials; matches
    the single surviving closed-form term for x^3 and x^4."""
    params = NATURAL_UNITS
    hbar = params.hbar
    # m omega^2 (x + shift)^2 / 2 expanded in x
    quadratic = PolynomialPotential((0.5 * params.alpha * params.shift, params.alpha,
                                     0.5 * params.m * params.omega * params.omega))
    shifted = PolynomialPotential((0.3, 1.7, 0.9))
    pts = [(0.3, -0.4), (1.1, 0.7)]
    vanishes = all(moyal_rhs(U, _MustNotEvaluate(), x, p, hbar) == 0.0
                   for U in (quadratic, shifted) for x, p in pts)
    W = stationary_field(params, 2)
    cubic = PolynomialPotential((0.0, 0.0, 0.0, 1.0))
    quartic = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0))
    worst_exact = 0.0 if vanishes else math.inf
    worst_fd = 0.0 if vanishes else math.inf
    plain = lambda x, p, t=0.0: W(x, p, t)  # hides p_derivative: forces the FD path
    for x, p in pts:
        wppp = W.p_derivative(3, x, p)
        closed_cubic = -(hbar * hbar / 4.0) * wppp
        closed_quartic = -(hbar * hbar) * x * wppp
        for U, closed in ((cubic, closed_cubic), (quartic, closed_quartic)):
            scale = max(1.0, abs(closed))
            worst_exact = max(worst_exact, abs(moyal_rhs(U, W, x, p, hbar) - closed) / scale)
            worst_fd = max(worst_fd, abs(moyal_rhs(U, plain, x, p, hbar) - closed) / scale)
    return CheckResult(
        provenance="odd derivatives above the potential degree vanish; "
                   "x^3 and x^4 leave one closed-form term",
        target="exactly 0 for quadratic potentials; closed-form single term otherwise",
        computed=f"max rel deviation: exact path {worst_exact:.3e}, FD path {worst_fd:.3e}",
        tolerance=tol, passed=worst_exact < tol and worst_fd < tol,
    )


def run_suite(names=("all",), tol_override: float | None = None) -> VerificationReport:
    """Run the named checks (or all of them) and collect a report.

    ``tol_override`` replaces the default absolute tolerance of every check
    that takes one; ratio-based checks are unaffected.  It must be finite
    and positive: no check can pass below 0, and every check passes at inf.
    An empty selection raises ``ValueError``: a report of no checks proves
    nothing.
    """
    if tol_override is not None:
        tol_override = _real(tol_override, "tolerance", positive=True)
    names = (names,) if isinstance(names, str) else tuple(names)
    if not names:
        raise ValueError(f"no suite selected; known: all, {', '.join(SUITES)}")
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(SUITES)
        elif name in SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; known: all, {', '.join(SUITES)}")
    checks = []
    for name in dict.fromkeys(expanded):
        fn, takes_tol = SUITES[name]
        if tol_override is not None and takes_tol:
            checks.append(fn(tol=tol_override))
        else:
            checks.append(fn())
    return VerificationReport(checks=checks)
