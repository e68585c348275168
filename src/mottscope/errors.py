"""Exception types shared across the package."""


class RangeError(ValueError):
    """A configuration field is outside its allowed range."""


class NotInBasisError(ValueError):
    """Occupation vector does not belong to the basis."""


class BasisSizeError(OverflowError):
    """Requested basis exceeds the configured dimension cap."""


class ConvergenceError(RuntimeError):
    """Dense eigensolver failed to converge."""


class DomainError(ValueError):
    """Arguments lie outside the domain of an analytic expression."""


class ValidationError(ValueError):
    """Scan plan or CLI input is malformed."""
