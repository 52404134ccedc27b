"""Exception types shared across the package, and the argument range checks.

Every rejected input (an argument, a config value, an oracle's output) is an
``InvalidArgument``; the only run-time failure of the algorithm itself is a
``CertificateFailure``.  The CLI maps the first to exit 1 and the second to
exit 2.  A start that is already stationary is no error: ``driver.run``
reports it as a run of zero steps.

The ``check_*`` functions are the one place a range check lives: each
raises ``InvalidArgument("<key> must be ..., got <value>")``.  NaN fails
every comparison, so it fails every range, and so do +-inf.
"""

import math

import numpy as np


class OqnError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(OqnError, ValueError):
    """An argument, config value or oracle output failed its check."""


class CertificateFailure(OqnError):
    """A probabilistic oracle guarantee did not hold even after one retry."""


def check_positive(key: str, value) -> None:
    """``value`` lies in (0, inf)."""
    if not 0.0 < value < math.inf:
        raise InvalidArgument(f"{key} must be positive and finite, got {value!r}")


def check_nonnegative(key: str, value) -> None:
    """``value`` lies in [0, inf)."""
    if not 0.0 <= value < math.inf:
        raise InvalidArgument(f"{key} must be nonnegative and finite, got {value!r}")


def check_open_unit(key: str, value) -> None:
    """``value`` lies in (0, 1), as a failure probability must."""
    if not 0.0 < value < 1.0:
        raise InvalidArgument(f"{key} must be in (0,1), got {value!r}")


def check_int_at_least(key: str, value, least: int) -> None:
    """``value`` is a Python or NumPy integer of at least ``least``."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise InvalidArgument(f"{key} must be an integer >= {least}, got {value!r}")


def check_one_of(key: str, value, choices: tuple) -> None:
    """``value`` is one of ``choices``."""
    if value not in choices:
        raise InvalidArgument(f"{key} must be one of {choices}, got {value!r}")
