"""Stationary Wigner functions of the harmonic oscillator.

Evaluates the closed-form Gaussian-Laguerre states, cross-checks them
against an independent Fourier-transform construction from the
eigenfunctions, and verifies normalization, marginals, and the energy
spectrum by quadrature.
"""

import math

import numpy as np

from phasewave import (NATURAL_UNITS, marginal_over_p, mean_energy,
                       momentum_density, phase_space_integral, position_density,
                       stationary_field, wigner_from_wavefunction, wigner_stationary)

params = NATURAL_UNITS

print("=== values at the origin: (-1)^n / pi, alternating sign ===")
for n in range(6):
    print(f"  W_{n}(0, 0) = {wigner_stationary(params, n, 0.0, 0.0):+.6f}")

print("\n=== closed form vs Fourier-transform construction ===")
x, p = 0.7, -1.1
for n in (0, 1, 3, 5):
    closed = wigner_stationary(params, n, x, p)
    transform = wigner_from_wavefunction(params, n, x, p)
    print(f"  n={n}: closed {closed:+.12f}  transform {transform:+.12f}  "
          f"diff {abs(closed - transform):.2e}")

print("\n=== normalization and mean energy by phase-space quadrature ===")
for n in range(6):
    W = stationary_field(params, n)
    total = phase_space_integral(W, params)
    energy = mean_energy(W, params)
    print(f"  n={n}: integral = {total:.12f}   <eps> = {energy:.9f}  (expect {n + 0.5})")

print("\n=== marginal over p reproduces the position density ===")
W0 = stationary_field(params, 0)
for x in np.linspace(-2.0, 2.0, 5):
    marg = marginal_over_p(W0, params, float(x))
    dens = position_density(params, 0, float(x))
    print(f"  x={x:+.1f}: marginal {marg:.12f}  |Psi_0|^2 {dens:.12f}")

print("\nmomentum density at p=0 equals 1/sqrt(pi):",
      momentum_density(params, 0, 0.0), "vs", 1 / math.sqrt(math.pi))
