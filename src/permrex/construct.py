"""Builders for the three permutation-language expressions.

Each builder maps an alphabet set S to an expression whose language is
exactly the permutations of S:

  * build_flat_union          one union term per permutation; length n*n!
  * build_tail_recursive      peel one leading symbol at a time; length t(n)
  * build_divide_and_conquer  split S into halves over all C(n, n//2)
                              choices; length f(n), the optimal one

The tail and divide-and-conquer builders are one split construction that
differs only in the size of the first part (1, or half of S).

Every builder predicts its output's alphabetic length first and refuses
with SizeCap when it exceeds the configured symbol budget, so a typo in
n cannot allocate gigabytes.  Subset enumeration is colexicographic;
that fixed order is what makes rendered output byte-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable, Iterator

from . import lengths
from .errors import InvalidArgs, InvalidSize, SizeCap
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


@dataclass(frozen=True)
class BuildLimits:
    """Materialization caps shared by all builders."""

    max_symbols: int = 10**7
    flat_cap: int = 8

    def __post_init__(self) -> None:
        if self.max_symbols < 1 or self.flat_cap < 1:
            raise InvalidArgs("caps must be positive")


DEFAULT_LIMITS = BuildLimits()


def _colex_index_subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    # Colex order: group by the largest element, smallest last element first.
    if k == 0:
        yield ()
        return
    for top in range(k - 1, n):
        for rest in _colex_index_subsets(top, k - 1):
            yield rest + (top,)


def subsets_of_size(s, k: int) -> Iterator[AlphabetSet]:
    """All C(|s|, k) subsets of s, in colexicographic order of member lists.

    Accepts an AlphabetSet or any iterable of distinct positive symbols.
    """
    if not isinstance(s, AlphabetSet):
        s = AlphabetSet(tuple(s))
    if not 0 < k <= s.n:
        raise InvalidSize(f"subset size must be in [1, {s.n}], got {k}")
    members = s.members
    for indices in _colex_index_subsets(s.n, k):
        yield AlphabetSet(tuple(members[i] for i in indices))


def _build_split(
    s: AlphabetSet, limits: BuildLimits, predicted: int, first_size: Callable[[int], int]
) -> Regex:
    """Union, over every first part A of s with |A| = first_size(|s|) in colex
    order, of (permutations of A)(permutations of s minus A), recursively.

    Sub-expressions for repeated subsets are built once and shared, so the
    result is a DAG whose tree expansion has alphabetic length `predicted`.
    """
    if predicted > limits.max_symbols:
        raise SizeCap(predicted, limits.max_symbols)

    @cache
    def expr_for(members: tuple[int, ...]) -> Regex:
        if len(members) == 1:
            return Sym(members[0])
        terms: list[Regex] = []
        for chosen in subsets_of_size(members, first_size(len(members))):
            chosen_set = set(chosen.members)
            complement = tuple(m for m in members if m not in chosen_set)
            terms.append(Concat(expr_for(chosen.members), expr_for(complement)))
        return reduce(Union, terms)

    return expr_for(s.members)


def build_divide_and_conquer(s: AlphabetSet, limits: BuildLimits = DEFAULT_LIMITS) -> Regex:
    """The optimal expression: split s into a floor(n/2) half and its complement.

    Union terms follow the colex order of the chosen halves; the tree
    expansion has alphabetic length exactly f(|s|).
    """
    return _build_split(s, limits, lengths.f(s.n), lambda size: size // 2)


def build_tail_recursive(s: AlphabetSet, limits: BuildLimits = DEFAULT_LIMITS) -> Regex:
    """Sum over the first symbol i of i followed by permutations of the rest:
    the split whose first part has one symbol.  Length t(|s|)."""
    return _build_split(s, limits, lengths.t(s.n), lambda size: 1)


def build_flat_union(s: AlphabetSet, limits: BuildLimits = DEFAULT_LIMITS) -> Regex:
    """One concatenation chain per permutation, in lexicographic order."""
    if s.n > limits.flat_cap:
        raise SizeCap(s.n, limits.flat_cap, what="alphabet symbols (flat union)")
    predicted = lengths.flat_length(s.n)
    if predicted > limits.max_symbols:
        raise SizeCap(predicted, limits.max_symbols)
    words = (
        reduce(Concat, (Sym(m) for m in perm))
        for perm in itertools.permutations(s.members)
    )
    return reduce(Union, words)
