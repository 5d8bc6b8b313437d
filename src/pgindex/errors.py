"""Exception types shared across the package.

Everything raised on a domain or input problem derives from GameError so
callers (and the CLI) can catch one base class. ValidationError covers
construction-time rejections and carries the offending witnesses, capped
nowhere here: rendering decides how many to show.
"""


class GameError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GameError):
    """A game description failed validation at construction time."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class NonZeroAtOrigin(ValidationError):
    """The all-zero profile (or empty coalition) must map to 0."""


class OutOfRangeOutput(ValidationError):
    """A table entry is not an integer output level in 0..k-1."""


class MonotonicityViolation(ValidationError):
    """Raising an input level lowered the output somewhere."""


class NegativeWeightNonMonotone(MonotonicityViolation):
    """A negative weight produced a non-monotone weighted table."""


class IncompleteTable(ValidationError):
    """The level table does not cover every profile exactly once."""


class NonIncreasingThresholds(ValidationError):
    """Weighted-rule thresholds must be strictly increasing."""


class NonZeroEmptyCoalition(ValidationError):
    """A TU worth table assigns the empty coalition a nonzero worth."""


class IncompleteWorthTable(ValidationError):
    """A TU worth table misses some coalition."""


class DenominatorTooLarge(ValidationError):
    """A TU game's worths have a common denominator beyond the digit limit."""


class DigitLimitExceeded(GameError):
    """A computed value has more digits than the integer digit limit lets a
    report print."""


class CapExceeded(ValidationError):
    """The requested enumeration is larger than the configured cap."""


class ProfileDimensionMismatch(GameError):
    """A profile has the wrong number of entries for the game."""


class LevelOutOfRange(GameError):
    """An input or output level lies outside its allowed range."""


class NotBinaryGame(GameError):
    """Operation requires j = k = 2."""


class NotTwoLevelInput(GameError):
    """Operation requires two input levels (j = 2)."""


class UnknownPlayer(GameError):
    """A player id is not one of 1..n."""


class OracleCapExceeded(GameError):
    """The brute-force oracle refuses tables above its fixed cap."""


class NotMinimalCritical(GameError):
    """The given profile is not a minimal critical vector of the game."""


class ZeroLevelPlayer(GameError):
    """Criticality is only defined for players at a positive level."""


class TrivialGame(GameError):
    """The constant-0 game admits no normalized index."""


class DimensionMismatch(GameError):
    """Two games do not share the same (n, j, k) shape."""


class NotAPermutation(GameError):
    """The given mapping is not a bijection of 1..n."""


class NotMergeable(GameError):
    """The requested operation needs a mergeable pair of games."""


class InvariantViolation(GameError):
    """A result broke a property its construction guarantees."""


class ParseError(GameError):
    """A game file could not be parsed."""

    def __init__(self, path, message, line=None, col=None):
        where = f"{path}:{line}:{col}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.col = col
