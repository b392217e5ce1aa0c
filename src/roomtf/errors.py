"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A config value or geometry violates a documented bound."""


class DigestMismatchError(ConfigurationError):
    """A persisted artifact does not match the active config's geometry."""


class BesselZeroError(ArithmeticError):
    """An unmasked local mode sits on (or too close to) a Bessel zero."""
