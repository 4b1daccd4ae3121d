"""Exception types shared across the library."""


class AccuracyError(RuntimeError):
    """Quadrature failed to reach the requested tolerance after one refinement."""

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class ConfigurationError(ValueError):
    """Invalid grid, step size, truncation radius, or potential degree."""


class DegenerateProfileError(ValueError):
    """Angular profile whose normalization denominator vanishes."""


class BlowupError(RuntimeError):
    """Non-finite values appeared during time stepping."""


class DataError(ValueError):
    """Bad field data: a non-finite sampled value, or a field file that is malformed.

    ``read_field`` raises it, naming the file, for a missing header or
    metadata, a ragged, short or non-numeric body, a CSV row that is not at
    its grid node, a value array that does not match the grid, and a
    non-finite time or value.
    """
