"""Exception types shared across the library."""


class AccuracyError(RuntimeError):
    """Quadrature failed to reach the requested tolerance after one refinement."""

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class ConfigurationError(ValueError):
    """Invalid grid, step size or potential degree, or an integrand that outruns the extent."""


class DegenerateProfileError(ValueError):
    """Angular profile whose normalization denominator vanishes."""


class BlowupError(RuntimeError):
    """Non-finite values appeared during time stepping."""


class DataError(ValueError):
    """Bad data: a NaN coordinate, a non-finite time or sampled value, or a malformed field file.

    The field classes, ``radial_kernel``, the densities, ``wavefunction``,
    ``polar_from_xy`` and ``energy_xy`` raise it, naming the coordinate
    (x, p or rho), when a coordinate holds a NaN; an infinite coordinate
    lies past every Gaussian and gives 0.  The field classes' calls and
    ``polar_factors`` raise it, naming t, for a NaN or infinite time and
    for a finite one whose wave phase is not finite (``propagate_exact``
    too, for the angle omega t); an array of times raises it for any such
    entry and for a bool array, and so do the marginals, through the
    field.  ``PhasePoint`` raises it for a non-finite component,
    ``moyal_rhs`` for an hbar that is not finite and positive, naming
    hbar, and for a term that takes the sum past the doubles, naming the
    term's factors hbar, U^(d)(x) and d^dW/dp^d, and
    ``wave_residual`` and ``transport_residual``, naming omega, for a
    residual that the scaling by omega takes past the doubles.
    ``read_field`` raises it, naming
    the file, for a missing header or metadata, a ragged, short or
    non-numeric body, a CSV row that is not at its grid node, a value array
    that does not match the grid, and a non-finite time or value.
    """
