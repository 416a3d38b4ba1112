"""Exception types shared across the package.

Everything raised on bad user input derives from WavetrendError so callers
(and the command line driver) can distinguish configuration problems from
genuine bugs.  check_integer is the one check of an integer argument,
check_flag the one check of an on/off argument and as_floats the one
conversion of an array argument.
"""

import operator

import numpy as np


class WavetrendError(Exception):
    """Base class for all input and configuration errors."""


class UnsupportedFilter(WavetrendError):
    """Requested wavelet family/order pair is not in the coefficient tables."""


class SingularMatrix(WavetrendError):
    """Correction matrix is numerically singular at the requested depth."""


class InvalidDiffSpec(WavetrendError):
    """Differencing lag/order combination is not supported."""


class SeriesTooShort(WavetrendError):
    """Input series has too few observations for the requested operation."""


class ScaleTooDeep(WavetrendError):
    """Requested number of scales exceeds what the series length allows."""


class NonDyadicLength(WavetrendError):
    """Operation requires a power-of-two length."""


class ModeMismatch(WavetrendError):
    """Unknown transform mode or extension policy, or a pyramid of another mode."""


class NegativeSpectrum(WavetrendError):
    """Spectral values must be nonnegative to synthesise a process."""


class DimensionMismatch(WavetrendError):
    """Array arguments have incompatible shapes."""


class InvalidBinwidth(WavetrendError):
    """Smoothing window must be odd, positive and shorter than the series."""


class MatrixMismatch(WavetrendError):
    """An estimate does not match the series, scale or filter it is used with."""


class MissingSpectrum(WavetrendError):
    """Operation needs a spectrum estimate that was not supplied."""


class NegativeThreshold(WavetrendError):
    """Threshold values must be nonnegative."""


class MethodMismatch(WavetrendError):
    """Estimate was produced by an incompatible method for this operation."""


class TooFewReps(WavetrendError):
    """Not enough bootstrap replicates for the requested confidence level."""


def check_integer(value, name, low, high=None, error=WavetrendError, message=None) -> int:
    """value as an int in [low, high] (no upper bound when high is None).

    A bool, a float, any other non-integer or an integer out of range raises
    error, whose text is message when one is given."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise error(message or f"{name} must be an integer, got {value!r}") from None
    if number < low or high is not None and number > high:
        bound = f"at least {low}" if high is None else f"within [{low}, {high}]"
        raise error(message or f"{name} must be {bound}")
    return number


def check_flag(value, name) -> bool:
    """value as a bool; anything but a bool or a numpy bool raises WavetrendError."""
    if not isinstance(value, (bool, np.bool_)):
        raise WavetrendError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def as_floats(values, what) -> np.ndarray:
    """values as a float64 array (no copy of one); strings, ragged lists and
    anything else numpy cannot read as numbers raise WavetrendError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise WavetrendError(f"{what} must be numbers: {exc}") from None
