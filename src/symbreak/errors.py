"""Exception types shared across the package."""


class SymbreakError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(SymbreakError, ValueError):
    """An input value violates a documented precondition (loops, bad indices, ...)."""


class GraphFormatError(MalformedInputError):
    """A graph6 line could not be decoded.  Carries the bare message and the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


class ResourceCapError(SymbreakError):
    """A computation was refused because it exceeds a configured safety cap."""


class ContractError(SymbreakError):
    """An argument breaks an operation's contract (wrong domain, not an automorphism, ...)."""


class DegenerateCaseError(SymbreakError):
    """The requested invariant is undefined for this input (e.g. edge-distinguishing K2)."""
