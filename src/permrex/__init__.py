"""Short regular expressions for permutation languages.

The package builds provably short regexes whose language is exactly
the n! permutations of {1..n}, tabulates the exact length recurrences
they satisfy, verifies the constructions by the split proof first and
by an exhaustive walk of a position automaton otherwise, certifies
asymptotic growth bounds with interval arithmetic, and cross-checks
optimality against an exhaustive search at tiny n.
"""

from .construct import (
    AlphabetSet,
    build_divide_and_conquer,
    build_flat_union,
    build_tail_recursive,
)
from .errors import (
    CapExceeded,
    CompactOverflow,
    DomainError,
    InvalidArgs,
    PermrexError,
    RegexSyntaxError,
    SizeCap,
    SymbolOutOfRange,
)
from .lengths import (
    check_opt_choice,
    check_triple_growth,
    f,
    f_table,
    flat_length,
    split_delta,
    t,
)
from .regex_ast import (
    Concat,
    EmptySet,
    Epsilon,
    Regex,
    RegexMetrics,
    Star,
    Sym,
    Union,
    alphabetic_length,
    fold,
    metrics,
    parse,
    postorder,
    render,
    render_to,
)
from .verify import (
    Certificate,
    PositionNfa,
    accepts,
    glushkov,
    language_equals_permutations,
    naive_matches,
    uniform_length,
    word_symbols,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetSet",
    "build_divide_and_conquer",
    "build_flat_union",
    "build_tail_recursive",
    "CapExceeded",
    "CompactOverflow",
    "DomainError",
    "InvalidArgs",
    "PermrexError",
    "RegexSyntaxError",
    "SizeCap",
    "SymbolOutOfRange",
    "check_opt_choice",
    "check_triple_growth",
    "f",
    "f_table",
    "flat_length",
    "split_delta",
    "t",
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
    "Certificate",
    "PositionNfa",
    "accepts",
    "glushkov",
    "language_equals_permutations",
    "naive_matches",
    "uniform_length",
    "word_symbols",
    "__version__",
]
