"""Exception types shared across the library, and the checks of number arguments.

Every number an argument of the library takes goes through one of the
checks here: one finite real, one integer in a range, an array of reals, a
coordinate (reals with no NaN) or a time or an angle (finite reals).  A
Python or numpy bool, a non-finite value and a value out of range raise
:class:`DataError`; a complex number, text, a ragged nested sequence, or an
array where one number is due raises ``TypeError``.  An integer argument
refuses anything that is not one integer, a float such as 2.0 or text
included, with ``DataError``.
"""

import math

import numpy as np


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
    """Bad data: a bool, NaN, infinite or out-of-range number, or a malformed field file.

    Every number argument raises it, naming the argument, for a Python or
    numpy bool, for a NaN or infinite value where a finite one is due (a
    time, an angle phi, a point of ``moyal_rhs`` or
    ``wigner_from_wavefunction``, an amplitude, a unit, a wave's omega, a
    grid length or step, a potential coefficient, the tolerance), for one
    that is not positive where a positive one is due, and for an integer
    argument that is not one integer in its range; an array of times raises
    it for any such entry and for a bool array.  ``OscillatorParams``
    raises it for a unit scale or a shift that does not fit in a double,
    ``StandingWaveSpec`` for a 2A/C past the doubles, ``WaveProfile`` and
    ``normalization`` for a profile that is not finite or not 2 pi kappa
    periodic, and ``Field2D`` for values of the wrong shape or not finite.  The field classes and their
    ``polar_factors``, ``radial_kernel``, the densities, ``wavefunction``,
    ``polar_from_xy``, ``xy_from_polar``, ``energy_xy``, the marginals and
    a potential's value raise it, naming the coordinate (x, p or rho), when a coordinate holds a bool or a NaN; an
    infinite coordinate lies past every Gaussian and gives 0, in a rotation
    too.  The field classes' and the rotations' calls and ``polar_factors``
    raise it, naming t, for a finite time whose wave phase is not finite
    (``propagate_exact`` too, for the angle omega t).  ``moyal_rhs`` raises it for a term that takes the sum past
    the doubles, naming the term's factors hbar, U^(d)(x) and d^dW/dp^d,
    ``p_derivative`` for a value past the doubles, naming the order and the
    point, and ``wave_residual`` and ``transport_residual``, naming omega,
    for a residual that the scaling by omega takes past the doubles.
    ``read_field`` raises it, naming the file, for a missing header or
    metadata, a ragged, short or non-numeric body, a CSV row that is not at
    its grid node, a value array that does not match the grid, and a
    non-finite time or value; ``export_field`` raises it for an ``extra``
    key other than n, ell, A and C.
    """


#: numpy's kind code of the Python number types: bool, int, float, complex.
_PYTHON_KINDS = {bool: "b", int: "i", float: "f", complex: "c"}


def _array(values, name):
    """``np.asarray(values)``; a ragged nested sequence raises ``TypeError`` naming ``name``."""
    try:
        return np.asarray(values)
    except ValueError:  # numpy's inhomogeneous-shape refusal
        raise TypeError(f"{name} must be a number or an array of them, "
                        f"got a ragged sequence {values!r}") from None


def _scalar_kind(value, name):
    """numpy's kind code of the one number ``value``: "b" bool, "i"/"u" int, "f" float, ...

    A Python int of any size is "i"; numpy would hold one past int64 as an
    object.  An array, even of one entry, raises ``TypeError`` naming ``name``.
    """
    kind = _PYTHON_KINDS.get(type(value))
    if kind is None:
        vals = _array(value, name)
        if vals.ndim:
            raise TypeError(f"{name} must be one number, got an array of shape {vals.shape}")
        kind = vals.dtype.kind
    return kind


def _real(value, name, positive=False):
    """``value`` as one finite float, and a positive one if ``positive``.

    A bool, a NaN or infinite value, an int past the doubles and, if
    ``positive``, a value <= 0 raise ``DataError`` naming ``name``; a
    complex number, text or an array raise ``TypeError``.
    """
    kind = _scalar_kind(value, name)
    if kind not in "biuf":
        raise TypeError(f"{name} must be real, got {value!r}")
    try:
        v = math.nan if kind == "b" else float(value)
    except OverflowError:  # an int past the doubles
        v = math.inf
    if not (math.isfinite(v) and (v > 0.0 or not positive)):
        raise DataError(f"{name} must be finite{' and positive' if positive else ''}, got {value}")
    return v


def _integer(value, name, least=0, most=math.inf):
    """``value`` as one int in [least, most].

    Anything else that is one value, a bool, a float such as 2.0 or text,
    raises ``DataError`` naming ``name``; an array raises ``TypeError``.
    """
    if _scalar_kind(value, name) not in "iu" or not least <= value <= most:
        raise DataError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    return int(value)


def _reals(values, name):
    """``values``, one number or an array of them, as a float array.

    An int array is cast once and a float array is returned as it is.  A
    bool or a bool array raises ``DataError`` naming ``name``, and a
    complex number, text, an array of them or a ragged sequence ``TypeError``.
    """
    kind = _PYTHON_KINDS.get(type(values))
    vals = values if kind else _array(values, name)
    kind = kind or vals.dtype.kind
    if kind in "iuf":
        return np.asarray(vals, dtype=float)
    got = repr(values) if np.ndim(vals) == 0 else f"a {vals.dtype} array"
    if kind == "b":
        raise DataError(f"{name} must be finite, got {got}")
    raise TypeError(f"{name} must be real, got {got}")


def coordinate(values, name):
    """``values`` as a float array; raises ``DataError`` naming the coordinate if it holds a NaN.

    A bool raises ``DataError`` and a complex number or text ``TypeError``, as for a time.
    """
    vals = _reals(values, name)
    if np.isnan(vals).any():
        raise DataError(f"coordinate {name} is NaN")
    return vals


def _first_entry(values, bad):
    """The first entry of the array ``values`` where ``bad`` holds, as a Python scalar."""
    return values[np.unravel_index(np.argmax(bad), bad.shape)].item()


def _require_finite(value, name):
    """``value`` as a float, or an array of values as a float array.

    Raises ``DataError`` naming it if it, or an entry, is NaN or infinite,
    and for a bool or a bool array; ``TypeError`` for a complex number, for
    an array that does not hold real numbers and for a ragged sequence.
    """
    if _array(value, name).ndim == 0:
        return _real(value, name)
    vals = _reals(value, name)
    finite = np.isfinite(vals)
    if not finite.all():
        raise DataError(f"{name} must be finite, got {_first_entry(vals, ~finite)} in an array")
    return vals
