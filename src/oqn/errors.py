"""Exception types shared across the package."""


class OqnError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OqnError):
    pass


class NonFinite(OqnError):
    pass


class UnknownProblem(OqnError):
    pass


class InvalidDim(OqnError):
    pass


class MissingValueOracle(OqnError):
    pass


class MissingHessianOracle(OqnError):
    pass


class InvalidStep(OqnError):
    """Finite-difference step must be positive."""


class NonUnitStart(OqnError):
    pass


class InvalidProbability(OqnError):
    pass


class InvalidDelta(OqnError):
    pass


class OutsideBall(OqnError):
    pass


class IterBudgetTooSmall(OqnError):
    pass


class CertificateFailure(OqnError):
    """A probabilistic oracle guarantee did not hold even after one retry."""


class ZeroL2(OqnError):
    """Auto hyperparameters divide by the Hessian-Lipschitz constant."""


class NoGapEstimate(OqnError):
    pass


class NonPositiveRadius(OqnError):
    pass


class DimTooLarge(OqnError):
    """A dense test oracle was asked for a matrix above its size cap."""


class UnknownLevel(OqnError):
    pass


class StationaryStart(OqnError):
    """The start point already satisfies the stationarity threshold.

    Carries the gradient norm at the start point; callers treat this as a
    degenerate success, not a failure.
    """

    def __init__(self, grad_norm: float):
        super().__init__(f"start point is already stationary (|grad| = {grad_norm:.3e})")
        self.grad_norm = grad_norm
