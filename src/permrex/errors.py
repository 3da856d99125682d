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
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class CompactOverflow(PermrexError, ValueError):
    """Compact rendering requested for an alphabet with symbol ids > 9."""


class SizeCap(PermrexError, RuntimeError):
    """Predicted output size exceeds the configured materialization cap."""

    def __init__(self, predicted: int, cap: int, what: str = "symbols"):
        super().__init__(f"refusing to build: {predicted} {what} exceeds cap {cap}")
        self.predicted = predicted
        self.cap = cap


class CapExceeded(PermrexError, RuntimeError):
    """Requested n is beyond the hard feasibility cap of an exhaustive check."""


class DomainError(PermrexError, ValueError):
    """Real-valued operation evaluated outside its certified domain."""
