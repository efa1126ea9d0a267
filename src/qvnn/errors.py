"""Exception types, one per exit code of the command line."""


class QvnnError(Exception):
    """Base class for all package-specific errors."""


class InputError(QvnnError, ValueError):
    """An input is refused (exit 2): its format, shape, structure or range."""


class NumericalError(QvnnError, RuntimeError):
    """A solver or factorization broke down beyond recovery (exit 3)."""
