"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter set violates a required inequality or schema.

    The message names the violated constraint. The CLI maps this to
    exit code 2.
    """


class ConvergenceError(RuntimeError):
    """A numerical routine cannot meet its tolerance, or a run leaves the floats."""
