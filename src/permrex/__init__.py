"""Short regular expressions for permutation languages.

The package builds provably short regexes whose language is exactly
the n! permutations of {1..n}, tabulates the exact length recurrences
they satisfy, verifies the constructions by the split proof first and
by an exhaustive walk of a position automaton otherwise, certifies
asymptotic growth bounds with interval arithmetic, and cross-checks
optimality against an exhaustive search at tiny n.

Importing the package runs none of its submodules.  Each name in
`__all__` is imported from the submodule that defines it at its first
access (PEP 562).  `permrex.cli` registers what a command may need, and
every module imports what it uses.
"""

import importlib


# The public names, by the submodule that defines them.  PEP 562: each is
# imported from its submodule at its first access, so `import permrex` runs
# none of them.
_EXPORTS = {
    "construct": (
        "build_divide_and_conquer",
        "build_flat_union",
        "build_tail_recursive",
    ),
    "errors": (
        "CapExceeded",
        "CompactOverflow",
        "DomainError",
        "InvalidArgs",
        "PermrexError",
        "RegexSyntaxError",
        "SizeCap",
        "SymbolOutOfRange",
    ),
    "lengths": (
        "check_opt_choice",
        "check_triple_growth",
        "f",
        "f_table",
        "flat_length",
        "split_delta",
        "t",
    ),
    "regex_ast": (
        "Concat",
        "EmptySet",
        "Epsilon",
        "Regex",
        "RegexMetrics",
        "Star",
        "Sym",
        "Union",
        "alphabetic_length",
        "fold",
        "metrics",
        "parse",
        "postorder",
        "render",
        "render_to",
    ),
    "verify": (
        "Certificate",
        "PositionNfa",
        "glushkov",
        "language_equals_permutations",
        "naive_matches",
        "uniform_length",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A public name, or one of the submodules in _EXPORTS, imported on first
    access and kept as an attribute of the package."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]
