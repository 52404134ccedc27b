"""Exception types shared across the package.

Every rejected input (an argument, a config value, an oracle's output) is an
``InvalidArgument``; the only run-time failure of the algorithm itself is a
``CertificateFailure``.  The CLI maps the first to exit 1 and the second to
exit 2; ``StationaryStart`` is a degenerate success, reported as one.
"""


class OqnError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(OqnError, ValueError):
    """An argument, config value or oracle output failed its check."""


class CertificateFailure(OqnError):
    """A probabilistic oracle guarantee did not hold even after one retry."""


class StationaryStart(OqnError):
    """The start point already satisfies the stationarity threshold.

    Carries the gradient norm at the start point; callers treat this as a
    degenerate success, not a failure.
    """

    def __init__(self, grad_norm: float):
        super().__init__(f"start point is already stationary (|grad| = {grad_norm:.3e})")
        self.grad_norm = grad_norm
