"""Exception types shared across the package."""


class StrongExtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(StrongExtError):
    """Malformed input text; the message names the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class TooSmallError(StrongExtError):
    """Graph is below the minimum order the operation supports."""


class EmptyGraphError(TooSmallError):
    """Graph has no vertices at all."""


class InvalidInputError(StrongExtError):
    """Input violates an operation precondition."""


class InvalidDiceError(StrongExtError):
    """Dice violate the size or disjointness rules."""


class BudgetError(StrongExtError):
    """Requested exhaustive computation exceeds its fixed enumeration budget."""


class HasCompleteDicutError(StrongExtError):
    """The digraph admits a complete dicut, so no strong extension exists.

    The blocking certificate, the side of a complete dicut as the sorted
    tuple of its vertices, is attached as ``certificate``.
    """

    def __init__(self, certificate: tuple[int, ...]):
        super().__init__("digraph has a complete dicut")
        self.certificate = certificate
