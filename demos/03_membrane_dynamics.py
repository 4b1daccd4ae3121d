"""Phase-plane transport: exact rotation, upwind advection, PDE residuals.

For the quadratic potential the dynamics reduce to rigid rotation of the
phase plane, W_t = omega W_phi in polar coordinates.  This script compares
the first-order upwind solver against the exact rotation, then uses
central-difference residuals to show which equations the standing wave
actually satisfies: the second-order membrane equation
W_tt = omega^2 W_phiphi holds, while the first-order one-way transport
equation does not (its residual converges to a nonzero smooth limit
carried by the counter-propagating component).
"""

import math

import numpy as np

from phasewave import (NATURAL_UNITS, GridSpec, StandingWaveSpec, evolve_fd,
                       polar_from_xy, propagate_exact, radial_kernel, sample_field,
                       standing_wave_field, transport_residual, wave_residual)

params = NATURAL_UNITS


def initial(x, p, t=0.0):
    rho, phi = polar_from_xy(params, x, p)
    return radial_kernel(params, 0, rho) * np.sin(2 * phi)


# After a whole period the rotation maps sin 2 phi onto itself, so a solver that
# turned at the wrong speed would converge there too; 0.37 of a period tells them apart.
print("=== upwind solver vs exact rotation over 0.37 of a period ===")
t_final = 0.37 * 2 * math.pi / params.omega
print("  n_phi   max error    observed order")
prev = None
for n_phi in (128, 256, 512):
    dphi = 2 * math.pi / n_phi
    grid = GridSpec(rho_max=4.0, n_rho=16, n_phi=n_phi, dt=0.5 * dphi / params.omega)
    evolved = evolve_fd(sample_field(initial, grid, 0.0, params), params, t_final)
    exact = sample_field(propagate_exact(initial, params, t_final), grid, t_final, params)
    err = float(np.max(np.abs(evolved.values - exact.values)))
    order = "" if prev is None else f"{math.log2(prev / err):14.3f}"
    print(f"  {n_phi:5d}   {err:.4e} {order}")
    prev = err

print("\n=== residual discrimination for the standing wave ===")
spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
W = standing_wave_field(params, 0, spec)
t_c = 0.3 * spec.period(params.omega)
print("  n_phi   wave-equation residual   transport residual")
for n_phi in (64, 128, 256):
    dt = 0.5 * (2 * math.pi / n_phi) / params.omega
    grid = GridSpec(rho_max=4.0, n_rho=24, n_phi=n_phi)
    fields = [sample_field(W, grid, t_c + k * dt, params) for k in (-1, 0, 1)]
    wres = float(np.max(np.abs(wave_residual(fields, params).values)))
    tres = float(np.max(np.abs(transport_residual(fields, params).values)))
    print(f"  {n_phi:5d}   {wres:22.3e}   {tres:18.3e}")
print("  -> the wave-equation residual refines to zero (second order);")
print("     the transport residual approaches a fixed nonzero limit.")

print("\n=== a single-chirality wave satisfies both equations ===")


def single(x, p, t=0.0):
    rho, phi = polar_from_xy(params, x, p)
    return radial_kernel(params, 0, rho) * (1 + 0.5 * np.sin(6 * (phi + params.omega * t)))


for n_phi in (64, 128, 256):
    dt = 0.5 * (2 * math.pi / n_phi) / params.omega
    grid = GridSpec(rho_max=4.0, n_rho=24, n_phi=n_phi)
    fields = [sample_field(single, grid, t_c + k * dt, params) for k in (-1, 0, 1)]
    wres = float(np.max(np.abs(wave_residual(fields, params).values)))
    tres = float(np.max(np.abs(transport_residual(fields, params).values)))
    print(f"  {n_phi:5d}   {wres:22.3e}   {tres:18.3e}")

print("\nexact rotation of the single-chirality wave advances its phase:")
adv = propagate_exact(single, params, 0.4)
x, p = 0.8, 0.5
print(f"  propagated value {float(adv(x, p)):.12f} vs analytic {float(single(x, p, 0.4)):.12f}")
