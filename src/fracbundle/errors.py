"""Exception types shared across the package."""


class FracBundleError(Exception):
    """Base class for all package errors."""


class GeometryError(FracBundleError):
    """Bad manifold descriptor or metric-geometry precondition."""


class BundleError(FracBundleError):
    """Bundle invariant violated (non-unitary transport, non-Hermitian potential, mismatch)."""


class OperatorError(FracBundleError):
    """Spectral-operator precondition violated (negative spectrum, singular symbol, ...)."""


class QuadratureError(FracBundleError):
    """Numerical quadrature failed to reach the configured tolerance."""


class DataBoundaryError(FracBundleError):
    """A reconstruction input would leak non-local operator information."""


class ReconstructionError(FracBundleError):
    """Inverse-pipeline precondition failed (unreachable target, rank-deficient probes, ...)."""


class ConfigError(FracBundleError):
    """Experiment configuration failed validation."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
