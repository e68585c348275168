"""Exception types shared across the package."""


class ConvergenceError(RuntimeError):
    """Dense eigensolver failed to converge."""


class DomainError(ValueError):
    """Arguments lie outside the domain of a computation."""


class ValidationError(ValueError):
    """Scan plan, config file or other CLI input is malformed."""
