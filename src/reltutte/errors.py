"""Exception hierarchy for the engine.

Every failure mode raised by the library derives from EngineError so callers
(and the CLI) can distinguish engine validation failures from genuine bugs.
The one exception is InvariantBreach, which signals such a bug.
"""


class InvariantBreach(Exception):
    """An internal invariant failed on validated input: a bug in the engine."""


class EngineError(Exception):
    """Base class for all engine-level errors."""


# -- graph structure ---------------------------------------------------------

class UnknownEdge(EngineError):
    pass


class ContractLoop(EngineError):
    pass


class LoopTwoSum(EngineError):
    pass


class NotRegular(EngineError):
    pass


class MixedColors(EngineError):
    pass


class ColorClash(EngineError):
    """A color is used both on zero edges and on regular edges."""


# -- labelings and contracting sets ------------------------------------------

class ImproperLabeling(EngineError):
    pass


class InvalidContractingSet(EngineError):
    pass


# -- polynomial ring ----------------------------------------------------------

class NotLinearInZ(EngineError):
    pass


# -- pointed graphs ------------------------------------------------------------

class NoPointedEdge(EngineError):
    pass


class PointedIsLoopOrBridge(EngineError):
    pass


# -- tensor instances ----------------------------------------------------------

class InstanceInvalid(EngineError):
    pass


class TypeMismatch(EngineError):
    pass


class InvalidPartition(EngineError):
    pass


# -- text format ----------------------------------------------------------------

class ParseError(EngineError):
    pass


class DuplicateEdgeId(ParseError):
    pass


class TwoPointedEdges(ParseError):
    pass


class PointedZeroConflict(ParseError):
    pass
