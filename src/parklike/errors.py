"""Exception hierarchy for the parklike package.

Every error raised by the library derives from SpeciesError.  The CLI maps
ParseError/UnboundNameError to exit code 2 and everything else to exit 1.
An error text shows an input it echoes through shown() or cut(), so no error
line echoes an input whole.
"""


_SHOWN = 200  # the characters of an echoed input an error text shows


def cut(text: str) -> str:
    """text, cut after _SHOWN characters."""
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text) - _SHOWN} more characters)"


def shown(value) -> str:
    """value's repr, cut after _SHOWN characters."""
    return cut(repr(value))


class SpeciesError(Exception):
    """Base class for all parklike errors."""


class ParseError(SpeciesError):
    """Syntax error in the species DSL; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundNameError(SpeciesError):
    """A Ref names a species that is not bound in the environment."""


class DivergentRecursionError(SpeciesError):
    """A recursive definition failed to reach a fixed point in the allowed rounds."""


class InadmissibleCompositionError(SpeciesError):
    """Partitional composition with an inner species that has structures on the empty set."""

    def __init__(self, message="composition requires the inner species to have no structure on the empty set"):
        super().__init__(message)


class ChiTableExhaustedError(SpeciesError):
    """A table-backed chi map was evaluated beyond its last entry."""


class ChiNotIdentityError(SpeciesError):
    """The bijection only covers chi = Id; anything else is rejected."""


class BlockLengthMismatchError(SpeciesError):
    """A block-size vector does not have the length chi(n+1) required by the predicate."""


class InvalidStructureError(SpeciesError):
    """A structure value violates the invariants of its claimed species."""


class NonIntegralSeriesError(SpeciesError):
    """An exact division in series arithmetic left a remainder."""


class BudgetExceededError(SpeciesError):
    """A generation request exceeds the configured size budget."""
