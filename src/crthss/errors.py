"""Exception types raised across the library.

Every contract violation gets its own class so callers (and the CLI exit-code
mapping) can dispatch without string matching.
"""


class Error(Exception):
    """Base class for all library errors."""


# -- exact arithmetic / CRT ------------------------------------------------

class NotCoprime(Error):
    """Modular inverse requested for a value not coprime to the modulus."""


class ModuliNotPairwiseCoprime(Error):
    """Two moduli of a congruence system share a factor. The empty system is
    no error: crt_solve gives 0, and a modulus below 2 is a ValueError."""


# -- parameter generation --------------------------------------------------

class IntervalExhausted(Error):
    """The compactness interval holds fewer acceptable integers than requested."""


class ThresholdOutOfRange(Error):
    """A threshold exceeds the number of available moduli."""


# -- one-way functions -----------------------------------------------------

class LevelOutOfRange(Error):
    """One-way function evaluated with a level index below 1."""


# -- dealing / reconstruction ----------------------------------------------

class SecretOutOfRange(Error):
    """Secret not in [0, m0)."""


class InconsistentShares(Error):
    """Supplied shares cannot all come from one deal (best-effort detection)."""


class InvalidParams(Error):
    """Scheme parameters fail validation; the message lists the violations."""


class NotAuthorized(Error):
    """The share-holder set meets no qualifying threshold.

    ``failing_levels`` lists every level whose cumulative threshold is unmet.
    """

    def __init__(self, message: str, failing_levels: tuple = ()):
        super().__init__(message)
        self.failing_levels = tuple(failing_levels)


class TooFewShares(NotAuthorized):
    """Fewer distinct shares supplied than a flat threshold requires; the
    single level, level 1, is the failing one."""


class MissingPublicValue(Error):
    """The public bundle lacks a masked value needed for reconstruction."""


# -- security analysis -----------------------------------------------------

class IntractableInstance(Error):
    """Estimated enumeration work exceeds the configured budget."""


class NotUnauthorized(Error):
    """Adversary set is actually authorized; posterior analysis is meaningless."""


class DecompositionMismatch(Error):
    """A per-secret candidate count matches no floor/floor+1 product form."""
