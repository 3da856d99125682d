"""Shared strategies and fixtures.

`any_regexes` yields arbitrarily nested ASTs for language-level checks.
`normal_form_regexes` reassociates union and concatenation chains to
the left, the shape the parser produces, so render -> parse is an exact
AST round trip.
"""

from __future__ import annotations

import hypothesis.strategies as st

from permrex import regex_ast as ra


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


def _flatten(expr, kind):
    # In-order leaves of a same-operator subtree.
    parts = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if type(node) is kind:
            stack.append(node.right)
            stack.append(node.left)
        else:
            parts.append(node)
    return parts


def union_terms(expr):
    """The terms of the union chain at `expr`, left to right."""
    return _flatten(expr, ra.Union)


def normalize(expr):
    """Reassociate unions and concatenations to the left, recursively.

    The result is exactly the AST the parser builds from the rendering
    of `expr`; the language is unchanged.
    """
    kind = type(expr)
    if kind in (ra.Union, ra.Concat):
        parts = [normalize(p) for p in _flatten(expr, kind)]
        out = parts[0]
        for part in parts[1:]:
            out = kind(out, part)
        return out
    if kind is ra.Star:
        return ra.Star(normalize(expr.child))
    return expr


def normal_form_regexes(
    n: int = 3, with_specials: bool = True, with_star: bool = True
) -> st.SearchStrategy:
    """ASTs shaped exactly like parser output (chains fold left)."""
    return any_regexes(n, with_specials, with_star).map(normalize)
