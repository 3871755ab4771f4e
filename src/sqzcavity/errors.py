"""Exception types shared across the package, each with the kind that starts
the CLI's one-line message for it and the exit code the CLI returns."""


class SqzCavityError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SqzCavityError, ValueError):
    """Invalid or incomplete run configuration."""

    kind, exit_code = "config error", 2


class SingularResponseError(SqzCavityError, ValueError):
    """Cavity response evaluated exactly at the amplification pole."""

    kind, exit_code = "domain error", 3


class InstabilityError(SqzCavityError, ValueError):
    """A gain at or above the parametric threshold."""

    kind, exit_code = "domain error", 3


class IdentifiabilityError(SqzCavityError, RuntimeError):
    """Fit parameters are not separable from the supplied data."""

    kind, exit_code = "identifiability error", 5


class ConvergenceError(SqzCavityError, RuntimeError):
    """Iterative solver exhausted its budget without converging."""

    kind, exit_code = "convergence error", 6
