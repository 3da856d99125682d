"""Shared strategies and fixtures.

`any_regexes` yields arbitrarily nested ASTs for language-level checks.
`normal_form_regexes` reassociates concatenation chains to the left, the
shape the parser produces (unions are n-ary and flattened when built), so
render -> parse is an exact AST round trip.  `LADDER_16` and `LADDER_24` are
precision ladders that start low enough for some sweep points to climb,
for tests to put in place of `bounds.PRECISION_LADDER`.
"""

from __future__ import annotations

import hypothesis.strategies as st

from permrex import regex_ast as ra

LADDER_16 = (16, 32, 64, 128, 256, 512, 1024, 2000)
LADDER_24 = (24, 48, 96, 192, 384, 768, 1536, 2000)


def _leaves(n: int, with_specials: bool):
    choices = [st.integers(1, n).map(ra.Sym)]
    if with_specials:
        choices.append(st.just(ra.Epsilon()))
        choices.append(st.just(ra.EmptySet()))
    return st.one_of(*choices)


def any_regexes(
    n: int = 3, with_specials: bool = True, with_star: bool = True
) -> st.SearchStrategy:
    """Arbitrarily nested ASTs; use when only the language matters."""
    leaf = _leaves(n, with_specials)

    def extend(inner: st.SearchStrategy) -> st.SearchStrategy:
        options = [
            st.tuples(inner, inner).map(lambda ab: ra.Union(*ab)),
            st.tuples(inner, inner).map(lambda ab: ra.Concat(*ab)),
        ]
        if with_star:
            options.append(inner.map(ra.Star))
        return st.one_of(*options)

    return st.recursive(leaf, extend, max_leaves=24)


def union_terms(expr):
    """The terms of the union at `expr`, left to right; [expr] for any
    other node."""
    return list(expr.terms) if type(expr) is ra.Union else [expr]


def _concat_factors(expr):
    # In-order factors of a concatenation subtree.
    parts = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is ra.Concat:
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(node)
    return parts


def normalize(expr):
    """Reassociate concatenations to the left, recursively.  Unions are
    n-ary and flat already.

    The result is exactly the AST the parser builds from the rendering
    of `expr`; the language is unchanged.
    """
    kind = type(expr)
    if kind is ra.Union:
        return ra.Union(*map(normalize, expr.terms))
    if kind is ra.Concat:
        parts = [normalize(p) for p in _concat_factors(expr)]
        out = parts[0]
        for part in parts[1:]:
            out = ra.Concat(out, part)
        return out
    if kind is ra.Star:
        return ra.Star(normalize(expr.child))
    return expr


def normal_form_regexes(
    n: int = 3, with_specials: bool = True, with_star: bool = True
) -> st.SearchStrategy:
    """ASTs shaped exactly like parser output (concatenations fold left)."""
    return any_regexes(n, with_specials, with_star).map(normalize)
