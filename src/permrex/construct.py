"""Builders for the three permutation-language expressions.

Each builder maps n to an expression whose language is exactly the
permutations of {1..n}:

  * build_flat_union          one union term per permutation; length n*n!
  * build_tail_recursive      peel one leading symbol at a time; length t(n)
  * build_divide_and_conquer  split {1..n} into halves over all C(n, n//2)
                              choices; length f(n), the optimal one

The tail and divide-and-conquer builders are one split construction that
differs only in the size of the first part (1, or half of the symbols).  Each
union is built once, as one n-ary node over all of its terms.  The flat
builder shares the chains of consecutive permutations' common prefixes,
so every distinct prefix is one node built once.

Every builder refuses with SizeCap before it builds anything larger than
MAX_SYMBOLS symbol occurrences, so a typo in n cannot allocate gigabytes:
the split builders predict their length, and FLAT_CAP bounds the flat
one.  Each refuses on n before it creates any node: first an alphabet of
fewer than 1 or more than MAX_SYMBOLS symbols, then its own cap.
Lengths grow with n, so past the first n over the cap a split builder
refuses on n alone, without computing a length of millions of digits.
`require_flat_fits` is the flat builder's refusal, for a caller that
wants it before the build.  Subset enumeration is colexicographic; that
fixed order is what makes rendered output byte-stable.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Callable

from . import lengths
from .errors import InvalidArgs, SizeCap
from .regex_ast import Concat, Regex, Sym, Union, union_of


# Materialization caps: f(13) fits in MAX_SYMBOLS, f(14) does not, and the
# flat union over FLAT_CAP symbols has 8 * 8! = 322 560.
MAX_SYMBOLS = 10**7
FLAT_CAP = 8


def _require_alphabet_size(n: int) -> None:
    if n < 1:
        raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
    # Each symbol occurs in any expression for P_n, so none larger is built.
    if n > MAX_SYMBOLS:
        raise SizeCap(n, MAX_SYMBOLS, what="alphabet symbols")


def _require_split_fits(n: int, length: Callable[[int], int]) -> None:
    _require_alphabet_size(n)
    # `length` grows with n: once some m < n is over the cap, so is n.
    stop = next(m for m in itertools.count(1) if m == n or length(m) > MAX_SYMBOLS)
    if stop < n:
        raise SizeCap(n, stop - 1, what="alphabet symbols")
    predicted = length(n)
    if predicted > MAX_SYMBOLS:
        raise SizeCap(predicted, MAX_SYMBOLS)


def require_flat_fits(n: int) -> None:
    """Raise what `build_flat_union(n)` raises before it builds anything."""
    _require_alphabet_size(n)
    if n > FLAT_CAP:
        raise SizeCap(n, FLAT_CAP, what="alphabet symbols (flat union)")


def _build_split(n: int, length: Callable[[int], int], first_size: Callable[[int], int]) -> Regex:
    """Union, over every first part A of {1..n} with |A| = first_size(n) in
    colex order, of (permutations of A)(permutations of the rest), recursively.

    Sub-expressions for repeated subsets are built once and shared, so the
    result is a DAG whose tree expansion has alphabetic length `length(n)`.
    """
    _require_split_fits(n, length)

    @cache
    def expr_for(members: tuple[int, ...]) -> Regex:
        if len(members) == 1:
            return Sym(members[0])
        # Colex order: compare member lists from their largest element down.
        firsts = sorted(itertools.combinations(members, first_size(len(members))),
                        key=lambda part: part[::-1])
        return Union(*(
            Concat(expr_for(chosen), expr_for(tuple(m for m in members if m not in chosen)))
            for chosen in firsts
        ))

    return expr_for(tuple(range(1, n + 1)))


def build_divide_and_conquer(n: int) -> Regex:
    """The optimal expression: split {1..n} into a floor(n/2) half and the rest.

    Union terms follow the colex order of the chosen halves; the tree
    expansion has alphabetic length exactly f(n).
    """
    return _build_split(n, lengths.f, lambda size: size // 2)


def build_tail_recursive(n: int) -> Regex:
    """Sum over the first symbol i of i followed by permutations of the rest:
    the split whose first part has one symbol.  Length t(n)."""
    return _build_split(n, lengths.t, lambda size: 1)


def build_flat_union(n: int) -> Regex:
    """One concatenation chain per permutation, in lexicographic order.

    Consecutive permutations share a prefix, so the chains of the previous
    one are kept, cut back to the shared prefix and extended from there:
    each distinct prefix is built once, each Sym once.
    """
    require_flat_fits(n)
    words: list[Regex] = []
    chain: list[Regex] = []  # chain[k]: the current permutation's first k + 1 symbols
    previous = (None,) * n
    for perm in itertools.permutations(tuple(map(Sym, range(1, n + 1)))):
        shared = 0
        while perm[shared] is previous[shared]:
            shared += 1
        del chain[shared:]
        for sym in perm[shared:]:
            chain.append(Concat(chain[-1], sym) if chain else sym)
        words.append(chain[-1])
        previous = perm
    return union_of(words)
