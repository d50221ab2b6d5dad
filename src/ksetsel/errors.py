"""Exception types shared across the package.

Parameter errors mean the caller asked for something out of range
(bad k, negative eta, probabilities outside their domain, a learning
rate so large that training diverges).  Input errors mean the data
itself is unusable (non-finite scores, shape mismatches).  Data errors
cover malformed files on disk and carry enough detail to tell the
failure modes apart.
"""

from __future__ import annotations

__all__ = [
    "ParameterError",
    "DivergenceError",
    "InputError",
    "ConfigError",
    "DataError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
]


class ParameterError(ValueError):
    """A knob was set outside its documented range."""


class DivergenceError(ParameterError):
    """Training drove a model parameter to inf or nan; the learning rate is too large."""


class InputError(ValueError):
    """Runtime data violated a precondition (non-finite, wrong shape)."""


class ConfigError(ValueError):
    """An experiment config file or flag combination is invalid."""


class DataError(ValueError):
    """A dataset file could not be ingested."""


class IdxMagicError(DataError):
    """IDX header magic number does not match the expected constant."""


class IdxTruncatedError(DataError):
    """IDX payload is shorter than the header promises."""


class IdxCountMismatchError(DataError):
    """Image and label files disagree on the number of samples."""
