"""Exception types shared across the package."""


class BrwlltError(Exception):
    """Base class for all package errors."""


class NonNormalized(BrwlltError):
    """Probability weights do not sum to one."""


class NegativeWeight(BrwlltError):
    """A probability weight is negative."""


class Reducible(BrwlltError):
    """The supported step ranges on some axis share a common divisor > 1."""


class ZeroTopWeight(BrwlltError):
    """The declared maximal range on some axis carries zero weight."""


class DegenerateLazy(BrwlltError):
    """The walk never moves (all mass on staying put)."""


class CapacityExceeded(BrwlltError):
    """A box, axis or CF table, or BRW count block would exceed the element
    budget, or an offspring table would exceed ``MAX_OFFSPRING`` entries."""


class SubcriticalOrCritical(BrwlltError):
    """Offspring mean is not strictly greater than one."""


class HasExtinction(BrwlltError):
    """Offspring law puts positive mass on zero children."""


class CountOverflow(BrwlltError):
    """A particle count would exceed the configured integer width."""


class ConfigError(BrwlltError, ValueError):
    """An experiment config field is missing, malformed or inconsistent."""
