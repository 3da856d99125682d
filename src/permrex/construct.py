"""Builders for the three permutation-language expressions.

Each builder maps an alphabet set S to an expression whose language is
exactly the permutations of S:

  * build_flat_union          one union term per permutation; length n*n!
  * build_tail_recursive      peel one leading symbol at a time; length t(n)
  * build_divide_and_conquer  split S into halves over all C(n, n//2)
                              choices; length f(n), the optimal one

The tail and divide-and-conquer builders are one split construction that
differs only in the size of the first part (1, or half of S).

Every builder refuses with SizeCap before it builds anything larger than
MAX_SYMBOLS symbol occurrences, so a typo in n cannot allocate gigabytes:
the split builders predict their length, and FLAT_CAP bounds the flat
one.  Subset enumeration is colexicographic; that fixed order is what
makes rendered output byte-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable

from . import lengths
from .errors import InvalidArgs, SizeCap
from .regex_ast import Concat, Regex, Sym, Union


@dataclass(frozen=True)
class AlphabetSet:
    """A nonempty set of symbol ids, kept sorted and duplicate-free."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise InvalidArgs("alphabet must be nonempty")
        previous = 0
        for m in self.members:
            if m <= previous:
                raise InvalidArgs(
                    f"alphabet members must be strictly increasing positive ints, got {self.members}")
            previous = m

    @classmethod
    def first_n(cls, n: int) -> "AlphabetSet":
        """The standard alphabet {1, ..., n}."""
        if n < 1:
            raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.members)


# Materialization caps: f(13) fits in MAX_SYMBOLS, f(14) does not, and the
# flat union over FLAT_CAP symbols has 8 * 8! = 322 560.
MAX_SYMBOLS = 10**7
FLAT_CAP = 8


def _build_split(s: AlphabetSet, predicted: int, first_size: Callable[[int], int]) -> Regex:
    """Union, over every first part A of s with |A| = first_size(|s|) in colex
    order, of (permutations of A)(permutations of s minus A), recursively.

    Sub-expressions for repeated subsets are built once and shared, so the
    result is a DAG whose tree expansion has alphabetic length `predicted`.
    """
    if predicted > MAX_SYMBOLS:
        raise SizeCap(predicted, MAX_SYMBOLS)

    @cache
    def expr_for(members: tuple[int, ...]) -> Regex:
        if len(members) == 1:
            return Sym(members[0])
        # Colex order: compare member lists from their largest element down.
        firsts = sorted(itertools.combinations(members, first_size(len(members))),
                        key=lambda part: part[::-1])
        terms = [
            Concat(expr_for(chosen), expr_for(tuple(m for m in members if m not in chosen)))
            for chosen in firsts
        ]
        return reduce(Union, terms)

    return expr_for(s.members)


def build_divide_and_conquer(s: AlphabetSet) -> Regex:
    """The optimal expression: split s into a floor(n/2) half and its complement.

    Union terms follow the colex order of the chosen halves; the tree
    expansion has alphabetic length exactly f(|s|).
    """
    return _build_split(s, lengths.f(s.n), lambda size: size // 2)


def build_tail_recursive(s: AlphabetSet) -> Regex:
    """Sum over the first symbol i of i followed by permutations of the rest:
    the split whose first part has one symbol.  Length t(|s|)."""
    return _build_split(s, lengths.t(s.n), lambda size: 1)


def build_flat_union(s: AlphabetSet) -> Regex:
    """One concatenation chain per permutation, in lexicographic order."""
    if s.n > FLAT_CAP:
        raise SizeCap(s.n, FLAT_CAP, what="alphabet symbols (flat union)")
    words = (
        reduce(Concat, (Sym(m) for m in perm))
        for perm in itertools.permutations(s.members)
    )
    return reduce(Union, words)
