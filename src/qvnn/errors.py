"""Exception types shared across the package."""


class QvnnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QvnnError, ValueError):
    """Operands have incompatible dimensions."""


class StructureError(QvnnError, ValueError):
    """A matrix violates a required structure (Hermitian, skew, ...) beyond tolerance."""


class InputError(QvnnError, ValueError):
    """A config file, matrix payload, or parameter set fails validation."""


class CoverageError(QvnnError, ValueError):
    """A time lookup or functional evaluation falls outside the stored sample range."""


class EquilibriumError(QvnnError, RuntimeError):
    """The damped fixed-point iteration for the network equilibrium did not converge."""


class NumericalError(QvnnError, RuntimeError):
    """A solver or factorization broke down beyond recovery."""
