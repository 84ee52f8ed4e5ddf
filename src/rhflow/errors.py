"""Exception types shared across the package."""


class RHFlowError(Exception):
    """Base class for all rhflow errors."""


class ConfigError(RHFlowError):
    """Invalid or inconsistent run configuration."""


class SupportPropertyError(ConfigError):
    """A spectrum entry violates the central-charge support bound."""


class DegenerateRayError(RHFlowError):
    """Central charge vanishes, so the ray direction is undefined."""


class NoAdmissibleRayError(RHFlowError):
    """No direction separates the active rays into two strict half-planes."""


class DivergenceError(RHFlowError):
    """Iteration produced non-finite values."""


class NonContractionError(RHFlowError):
    """Fixed-point iteration failed to contract within the iteration budget."""


class TruncationUnsafeError(RHFlowError):
    """Series evaluation outside its radius of convergence."""


class AsymmetricJumpError(RHFlowError):
    """Boundary-function jumps at 0 and infinity do not cancel."""


class NonzeroIndexError(RHFlowError):
    """Jump function winds around the origin; no index-zero solution."""
