"""Exception types shared by the shockdecay modules.

All library errors derive from ShockError so callers can catch one base
class.  Input-validation problems additionally derive from ValueError,
runtime/numerical failures from RuntimeError.
"""


class ShockError(Exception):
    """Base class for all shockdecay errors."""


class DomainError(ShockError, ValueError):
    """An argument is outside the physical or mathematical domain."""


class BreakdownError(ShockError, RuntimeError):
    """The closed-form amplitude ceased to exist (gradient blow-up)."""


class SolverError(ShockError, RuntimeError):
    """A numerical method failed to produce its result (iteration cap, missing sample)."""


class FittingError(ShockError, RuntimeError):
    """The shock-fitting root search failed to locate a root."""


class VacuumError(ShockError, ValueError):
    """A flow state reached zero or negative density/sound speed."""


class ConfigError(ShockError, ValueError):
    """A command-line or config-file setting is invalid."""
