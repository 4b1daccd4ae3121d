"""Harmonic-oscillator Wigner functions in phase space.

Stationary Gaussian-Laguerre states, their time-dependent angular-wave
extensions (standing and running waves on the circular phase
trajectories), quadrature verification of normalization, marginal and
spectrum identities, and finite-difference checks of the transport and
membrane-wave forms of the dynamics.
"""

from .errors import (AccuracyError, BlowupError, ConfigurationError, DataError,
                     DegenerateProfileError)
from .evolution import (Field2D, GridSpec, PolynomialPotential, evolve_fd, moyal_rhs,
                        poly_derivative, propagate_exact, transport_residual, wave_residual)
from .extended import (ExtendedWigner, ParityReport, StandingWaveSpec,
                       StandingWaveWigner, WaveProfile, antinode_angles, check_parity,
                       extended_eval, extended_field, node_angles, normalization,
                       running_wave_profile, standing_wave_eval, standing_wave_field,
                       stationary_profile)
from .gridio import export_field, read_field, sample_field
from .oscillator import NATURAL_UNITS, OscillatorParams, energy_xy, polar_from_xy, xy_from_polar
from .quadrature import (laguerre_energy_identity, marginal_over_p, marginal_over_x,
                         mean_energy, phase_space_integral)
from .special import MAX_ORDER, hermite, laguerre, log_weight
from .verify import (CheckResult, VerificationReport, run_suite)
from .wigner import (StationaryWigner, momentum_density, position_density, radial_kernel,
                     stationary_field, wavefunction, wigner_from_wavefunction,
                     wigner_stationary)

__version__ = "0.1.0"
