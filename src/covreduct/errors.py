"""Exception hierarchy shared across the package.

Two families matter to callers: ``ValidationError`` for malformed input
data (bad systems, bad documents) and ``EngineError`` for failures while
operating on valid data (stale caches, blowup guards, bad update targets).
The CLI maps them to exit codes 1 and 2 respectively.
"""


class CovreductError(Exception):
    pass


class ValidationError(CovreductError):
    """Input data violates a structural invariant."""


class EmptyBlock(ValidationError):
    pass


class DuplicateBlock(ValidationError):
    pass


class CoverageGap(ValidationError):
    """Some covering's blocks do not union to the whole universe."""


class DecisionNotPartition(ValidationError):
    """Decision classes overlap, leave a gap, or include an empty class."""


class DuplicateCoveringName(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class UncoveredObject(ValidationError):
    """An object lies in no block of the given collection."""


class ParseError(ValidationError):
    """A document could not be parsed; the message carries field context."""


class EngineError(CovreductError):
    """Failure while operating on structurally valid data."""


class TermBlowup(EngineError):
    """Intermediate term count exceeded the configured guard limit.

    ``core`` names the variables of the expanded CNF's one-variable
    clauses, which every term of its minimal DNF holds; raised from
    ``batch_reducts``, they are the coverings in every reduct.
    """

    def __init__(self, message: str, core: tuple[str, ...] = ()):
        super().__init__(message)
        self.core = core


class StaleCache(EngineError):
    """Cache fingerprint does not match the system it is used with."""


class UnknownCovering(EngineError):
    pass


class LastCovering(EngineError):
    """Deleting this covering would leave the system without coverings."""


class TooManyCoverings(EngineError):
    """Brute-force enumeration refused above the configured covering limit."""
