"""Short regular expressions for permutation languages.

The package builds provably short regexes whose language is exactly
the n! permutations of {1..n}, tabulates the exact length recurrences
they satisfy, verifies the constructions by the split proof first and
by an exhaustive walk of a position automaton otherwise, certifies
asymptotic growth bounds with interval arithmetic, and cross-checks
optimality against an exhaustive search at tiny n.
"""

import importlib.util
import sys


def _load_on_first_use(name: str):
    """The module `name`, imported in full at its first attribute access
    (or the module itself, if something imported it already).

    The module is registered in sys.modules, and a submodule is also set as
    an attribute of its package, as a normal import does, so both `import
    permrex.X` and `from permrex import X` find it before it has loaded."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


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
    glushkov,
    language_equals_permutations,
    naive_matches,
    uniform_length,
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
    "glushkov",
    "language_equals_permutations",
    "naive_matches",
    "uniform_length",
    "__version__",
]
