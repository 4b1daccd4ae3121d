"""A standing quasi-probability wave on the oscillator's phase circles.

Builds the time-dependent family with index ell = 3, amplitude A = 2 and
offset C = 5: the stationary kernel modulated by
1 + (2A/C) cos(2 omega ell t) sin(2 ell phi).  Shows the snapshot algebra
over one period, the node/antinode geometry, the positivity edge at
2A/C = 1, and exports a plot-ready polar grid.
"""

import math

import numpy as np

from phasewave import (NATURAL_UNITS, GridSpec, StandingWaveSpec, antinode_angles,
                       check_parity, export_field, node_angles, normalization,
                       phase_space_integral, sample_field, standing_wave_field,
                       stationary_field)

params = NATURAL_UNITS
spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
T = spec.period(params.omega)
print(f"wave number kappa = {spec.kappa}, frequency Omega = {spec.omega_wave(params.omega)}, "
      f"period T = {T:.6f}")

print(f"normalization N = {normalization(spec.to_profile())} (expect 1/C = {1 / spec.C})")
print("parity of the angular factor:", "odd" if check_parity(params, spec).passed else "NOT odd")

print("\n=== snapshots over one period (n = 0) ===")
W = standing_wave_field(params, 0, spec)
Wn = stationary_field(params, 0)
grid = GridSpec(rho_max=4.0, n_rho=48, n_phi=96)
ref = sample_field(Wn, grid, 0.0, params).values
for label, t in (("0", 0.0), ("T/4", T / 4), ("T/2", T / 2), ("3T/4", 3 * T / 4), ("T", T)):
    vals = sample_field(W, grid, t, params).values
    print(f"  t = {label:>4}: max deviation from the stationary state "
          f"= {np.max(np.abs(vals - ref)):.3e}")

print("\n=== node and antinode angles (degrees) ===")
print("  nodes:    ", " ".join(f"{math.degrees(v):5.1f}" for v in node_angles(spec)))
print("  antinodes:", " ".join(f"{math.degrees(v):5.1f}" for v in antinode_angles(spec)))

print("\n=== positivity edge for the ground state ===")
for A in (2.0, 3.0):
    W_edge = standing_wave_field(params, 0, StandingWaveSpec(ell=3, A=A, C=5.0))
    vals = sample_field(W_edge, grid, 0.0, params).values
    ratio = 2 * A / 5.0
    print(f"  2A/C = {ratio:.1f}: min over the grid = {vals.min():+.3e} "
          f"({'non-negative' if vals.min() >= 0 else 'negative region present'})")

print("\nnormalization is preserved at every instant:")
for t in (0.0, T / 8, T / 3):
    print(f"  t = {t:.4f}: integral = {phase_space_integral(W, params, t=t):.12f}")

path = export_field(sample_field(W, grid, 0.0, params), params, "csv",
                    "standing_wave_n0_t0.csv", extra={"n": 0, "ell": 3, "A": 2.0, "C": 5.0})
print(f"\nexported plot-ready grid to {path}")
