"""Quantum corrections to phase-space transport for polynomial potentials.

The right-hand side of the quantum transport equation is a series of
odd-order momentum derivatives weighted by odd derivatives of the
potential.  For any quadratic potential every term vanishes, which is why
the oscillator dynamics are purely classical rotation; cubic and quartic
potentials contribute exactly one term each.
"""

from phasewave import (NATURAL_UNITS, PolynomialPotential, moyal_rhs, poly_derivative,
                       stationary_field)

params = NATURAL_UNITS
hbar = params.hbar
W = stationary_field(params, 2)
pts = [(0.3, -0.4), (1.1, 0.7), (-0.8, 1.3)]

print("=== quadratic potentials: every series term vanishes ===")
for coeffs, label in (((0.0, 0.0, 0.5), "x^2/2"),
                      ((2.0, 1.5, 0.5), "x^2/2 + 1.5x + 2")):
    U = PolynomialPotential(coeffs)
    vals = [moyal_rhs(U, W, x, p, hbar) for x, p in pts]
    print(f"  U = {label:<18} rhs = {vals}")

print("\n=== cubic potential: single term -(hbar^2/4) W_ppp ===")
U3 = PolynomialPotential((0.0, 0.0, 0.0, 1.0))
print("  third derivative of U:", poly_derivative(U3, 3).coeffs)
for x, p in pts:
    series = moyal_rhs(U3, W, x, p, hbar)
    closed = -(hbar**2 / 4.0) * W.p_derivative(3, x, p)
    print(f"  at ({x:+.1f}, {p:+.1f}): series {series:+.10e}  closed {closed:+.10e}")

print("\n=== quartic potential: single term -hbar^2 x W_ppp ===")
U4 = PolynomialPotential((0.0, 0.0, 0.0, 0.0, 1.0))
for x, p in pts:
    series = moyal_rhs(U4, W, x, p, hbar)
    closed = -hbar**2 * x * W.p_derivative(3, x, p)
    print(f"  at ({x:+.1f}, {p:+.1f}): series {series:+.10e}  closed {closed:+.10e}")

print("\nthe same values through finite differences (no closed-form derivatives):")
plain = lambda x, p, t=0.0: W(x, p, t)
for x, p in pts[:2]:
    print(f"  at ({x:+.1f}, {p:+.1f}): fd-series {moyal_rhs(U3, plain, x, p, hbar):+.10e}")
