"""Shared exception types."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """Invalid geometry or run configuration."""


class NonConvergenceError(RuntimeError):
    """A quadrature, series or iterative solve failed to converge."""


class TruncationError(RuntimeError):
    """A channel lies beyond the configured spectrum truncation, or a
    mode-sum tail exceeds its tolerance."""


class SingularSystemError(RuntimeError):
    """A discrete solve hit a (numerically) singular system."""
