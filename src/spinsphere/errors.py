"""Exception types shared across the package."""


class SpinsphereError(Exception):
    """Base class for all package errors."""


class NonUnitBivector(SpinsphereError):
    """Bivector argument expected to be unit norm is not."""


class NonUnitRotor(SpinsphereError):
    """Rotor argument expected to be an even unit element is not."""


class AxisUndefined(SpinsphereError):
    """Rotor logarithm has no well defined axis (bivector part ~ 0)."""


class DomainError(SpinsphereError):
    """Scalar argument outside the documented domain."""


class ChartDegeneracy(SpinsphereError):
    """Chart point too close to a coordinate degeneracy collar."""


class StepOutOfRange(SpinsphereError):
    """Finite difference step outside the supported range."""


class InvalidConfig(SpinsphereError):
    """Experiment or run configuration violates its invariants."""


class TooFewTrials(SpinsphereError):
    """Estimator needs more trials than were supplied."""


class NonConvergentSequence(SpinsphereError):
    """Angle sequence does not approach a scalar limit point.

    Carries the multivector evaluated at the last sequence element
    (``value``) and whether that element is grade-0 (``is_scalar``).
    """

    def __init__(self, message, value=None, is_scalar=False):
        super().__init__(message)
        self.value = value
        self.is_scalar = is_scalar


class OptimizerBudgetExceeded(SpinsphereError):
    """Search exceeded its evaluation budget."""
