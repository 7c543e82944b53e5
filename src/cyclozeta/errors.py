"""Exception types shared across the package."""


class CycloZetaError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(CycloZetaError, ValueError):
    """A precondition on an operation's arguments was violated."""


class GroupMismatchError(InvalidArgumentError):
    """Elements of different groups were combined."""


class AlphabetMismatchError(InvalidArgumentError):
    """Operands live over different alphabets, rings or degree bounds."""


class NotInH1Error(InvalidArgumentError):
    """An operation restricted to words ending in a group letter got something else."""


class NotInH0Error(InvalidArgumentError):
    """An operation restricted to convergent words got a divergent one."""


class DegreeBoundError(InvalidArgumentError):
    """A coefficient beyond a series' truncation degree, or a value outside
    a table map's words, was requested."""


class DivergentSeriesError(InvalidArgumentError):
    """A numerically divergent nested sum was requested."""


class ParseError(CycloZetaError, ValueError):
    """Malformed textual input."""
