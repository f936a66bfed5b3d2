"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraints."""


class StateError(RuntimeError):
    """An object was used in a way its lifecycle does not allow."""


class StoreError(ValueError):
    """An array store cannot be saved: an array name is not a safe file name."""
