"""Exception types shared across the package.

Every rejected input (an argument, a config value, an oracle's output) is an
``InvalidArgument``; the only run-time failure of the algorithm itself is a
``CertificateFailure``.  The CLI maps the first to exit 1 and the second to
exit 2.  A start that is already stationary is no error: ``driver.run``
reports it as a run of zero steps.
"""


class OqnError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(OqnError, ValueError):
    """An argument, config value or oracle output failed its check."""


class CertificateFailure(OqnError):
    """A probabilistic oracle guarantee did not hold even after one retry."""
