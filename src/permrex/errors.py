"""Exception types shared across the package.

Every refusal has a dedicated class so callers (and the CLI exit-code
mapping) can tell a bad request apart from a genuine failed check.
"""


class PermrexError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgs(PermrexError, ValueError):
    """Arguments outside an operation's documented precondition."""


class SymbolOutOfRange(PermrexError, ValueError):
    """A symbol id fell outside [1, n] for the alphabet in force."""


class RegexSyntaxError(PermrexError, ValueError):
    """Malformed regex text.  Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)
        self.message = message
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.message} (at offset {self.offset})"


class CompactOverflow(PermrexError, ValueError):
    """Compact rendering requested for an alphabet with symbol ids > 9."""

    def __init__(self, sym: int):
        super().__init__(sym)
        self.sym = sym

    def __str__(self) -> str:
        return f"symbol {self.sym} has no single-digit form; use the spaced format"


class SizeCap(PermrexError, RuntimeError):
    """Predicted output size exceeds the configured materialization cap."""

    def __init__(self, predicted: int, cap: int, what: str = "symbols"):
        super().__init__(predicted, cap, what)
        self.predicted = predicted
        self.cap = cap
        self.what = what

    def __str__(self) -> str:
        return f"refusing to build: {self.predicted} {self.what} exceeds cap {self.cap}"


class CapExceeded(PermrexError, RuntimeError):
    """Requested n is beyond the hard feasibility cap of an exhaustive check."""


class DomainError(PermrexError, ValueError):
    """Real-valued operation evaluated outside its certified domain."""
