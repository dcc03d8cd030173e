"""Exception types shared across the package."""


class SupportMismatchError(ValueError):
    """A random variable's support does not match the scenario set at its index."""


class InfeasibleProblemError(RuntimeError):
    """The terminal constraint fails, so no reflected solution exists."""


class BracketFailureError(RuntimeError):
    """The root bracket for a shift search could not be established."""


class NonContractiveStepError(RuntimeError):
    """An implicit time step was refused because lambda * dt >= 1."""


class FixedPointError(RuntimeError):
    """The inner fixed-point sweep for an implicit step did not converge."""


class ConfigError(ValueError):
    """A run configuration is missing, malformed, or inconsistent.

    ``key`` names the offending section/option when known.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        if key:
            message = f"{key}: {message}"
        super().__init__(message)
