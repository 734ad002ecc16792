"""Error types shared across the package.

The split mirrors the CLI exit-code contract: configuration and hypothesis
problems are user errors (exit 1), while numerical non-convergence is a
reported state, never an exception.
"""

__all__ = ["ConfigurationError", "HypothesisError", "AdmissibilityError", "ProjectionError"]


class ConfigurationError(ValueError):
    """Bad grid, solver, or config-file parameters (wrong parity, sign, schema)."""


class HypothesisError(ValueError):
    """A nonlinearity or potential failed one of its structural hypotheses."""


class AdmissibilityError(ValueError):
    """An input field is outside an operation's domain (zero field, no positive part)."""


class ProjectionError(RuntimeError):
    """The ray projection onto the constraint manifold could not be completed."""
