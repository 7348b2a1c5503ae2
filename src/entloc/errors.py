"""Exception types shared across the package."""


class ZeroNormError(ValueError):
    """A state vector is numerically zero where a physical state is required."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Raised e.g. when the discriminant and singular-value routes to family I
    diverge, or when a commuting operator pair violates the commutativity condition.
    """


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without converging."""


class DegreeOverflowError(RuntimeError):
    """An exact polynomial exceeded its declared degree bound."""
