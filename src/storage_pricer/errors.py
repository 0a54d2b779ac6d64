"""Semantic exception types shared across the package."""


class StoragePricerError(Exception):
    """Base class for every error raised by this package."""


class DomainError(StoragePricerError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedDegreeError(DomainError):
    """Polynomial degree outside the supported range."""


class DegenerateQuantileError(DomainError):
    """A coupling formula would divide by a zero quantile."""


class FitError(StoragePricerError, RuntimeError):
    """Parameter fitting failed to converge; carries diagnostics."""

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class BuildError(StoragePricerError, ValueError):
    """Constraint or program assembly failed; names the offending slot."""


class ConfigurationError(StoragePricerError, ValueError):
    """Run configuration is inconsistent or incomplete."""


class SolverError(StoragePricerError, RuntimeError):
    """The convex solver could not produce a usable result."""

    def __init__(self, message, status=None, result=None):
        super().__init__(message)
        self.status = status
        self.result = result


class TheoryCheckError(StoragePricerError):
    """A pricing-theory check failed."""


class SchemaError(StoragePricerError, ValueError):
    """A CSV file does not match its documented schema."""
