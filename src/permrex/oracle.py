"""Brute-force minimal alphabetic lengths over tiny alphabets.

This module does not trust the builders.  It takes every language over
the distinct-symbol word universe for n <= 3 and computes the minimal
alphabetic length of a union/concatenation expression denoting it.
Confirming that the permutation language's minimal cost equals f(n) is
the package's independent optimality check at desk scale.

Search strategy: languages are bitmasks over the indexed universe.  An
expression is a union of terms, each a symbol or a concatenation, so its
language is a union of *atoms*: a one-symbol word (cost 1) or an
admissible concatenation A . B (cost cost(A) + cost(B), the cheapest of
its splits).  Concatenation is only admissible when the two sides'
symbol supports are disjoint (otherwise some concatenated word repeats
a symbol and leaves the universe), which makes the admissible pairs
enumerable directly.  Atoms may overlap, so cost(C) is the cheapest
atom cover of C: the minimum, over the atoms a within C that hold C's
lowest word, of cost(a) + cost(R), where R is C minus a plus any proper
subset of a.  Every mask read there is below C: R is a proper subset of
C, and the words of A and B are all shorter than the longest word of
A . B, which the (length, lex) order puts after them.  So one ascending
pass over the masks settles every cost.

Star and the empty word are deliberately absent from the operator set:
adding them can only pad a finite distinct-symbol language's
expression.  Every report carries that proviso in its `semantics`
field.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import lengths
from .errors import CapExceeded, InvalidArgs

ORACLE_CAP = 3
STAR_FREE_SEMANTICS = "union+concat only (star-free, epsilon-free)"


@dataclass(frozen=True)
class WordUniverse:
    """All nonempty distinct-symbol words over {1..n}, in (length, lex) order."""

    n: int
    words: tuple[tuple[int, ...], ...]

    def word_index(self, word: tuple[int, ...]) -> int:
        try:
            return self.words.index(word)
        except ValueError:
            raise InvalidArgs(
                f"word {word} is not a distinct-symbol word over 1..{self.n}") from None

    @property
    def permutation_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.words) if len(w) == self.n)


def build_universe(n: int) -> WordUniverse:
    """Deterministic word universe; |words| = sum over m of n!/(n-m)!."""
    if n < 1:
        raise InvalidArgs(f"universe needs n >= 1, got {n}")
    if n > ORACLE_CAP:
        raise CapExceeded(
            f"oracle capped at n = {ORACLE_CAP}: n = {n} would need 2^"
            f"{sum(math.perm(n, m) for m in range(1, n + 1))} language masks")
    words = tuple(
        perm
        for length in range(1, n + 1)
        for perm in itertools.permutations(range(1, n + 1), length)
    )
    return WordUniverse(n=n, words=words)


def _support_mask(word: tuple[int, ...]) -> int:
    mask = 0
    for s in word:
        mask |= 1 << (s - 1)
    return mask


def _mask(indices) -> int:
    return sum(1 << i for i in set(indices))


def _concat_splits(u: WordUniverse) -> list[tuple[int, int, int]]:
    """All admissible (A, B, A.B) mask triples.

    Admissible means the symbol supports of A and B are disjoint, which is
    exactly the condition for every concatenated word to stay inside the
    distinct-symbol universe.  Triples are enumerated per ordered pair of
    disjoint support sets; sides range over all nonempty word subsets there.
    """
    index_of = {w: i for i, w in enumerate(u.words)}
    languages_over: dict[int, list[list[int]]] = {}
    for sup in range(1, (1 << u.n) - 1):  # each side leaves a symbol to the other
        over = [i for i, w in enumerate(u.words) if _support_mask(w) & ~sup == 0]
        languages_over[sup] = [
            [i for j, i in enumerate(over) if bits >> j & 1]
            for bits in range(1, 1 << len(over))
        ]
    triples = []
    for sup_a, sup_b in itertools.product(languages_over, repeat=2):
        if sup_a & sup_b:
            continue
        for side_a in languages_over[sup_a]:
            for side_b in languages_over[sup_b]:
                product = (index_of[u.words[i] + u.words[j]] for i in side_a for j in side_b)
                triples.append((_mask(side_a), _mask(side_b), _mask(product)))
    return triples


def _proper_submasks(mask: int) -> list[int]:
    subs = [0]
    while mask:
        bit = mask & -mask
        subs += [s | bit for s in subs]
        mask ^= bit
    return subs[:-1]


@dataclass(frozen=True)
class CostTable:
    """Minimal alphabetic length of every expressible nonempty language."""

    universe: WordUniverse
    costs: list[int]  # per language mask; index 0, the empty language, is 0

    def cost(self, mask: int) -> int:
        if not 0 < mask < len(self.costs):
            raise InvalidArgs(f"language mask out of range: {mask}")
        return self.costs[mask]

    def cost_of_words(self, words) -> int:
        return self.cost(_mask(self.universe.word_index(tuple(w)) for w in words))


def minimal_cost_table(u: WordUniverse) -> CostTable:
    """Cheapest atom cover of every language, in one ascending pass."""
    splits: dict[int, list[tuple[int, int]]] = {}
    for a, b, c in _concat_splits(u):
        splits.setdefault(c, []).append((a, b))
    symbols = [1 << i for i, w in enumerate(u.words) if len(w) == 1]
    atoms_by_low: dict[int, list[tuple[int, list[int]]]] = {}
    for atom in symbols + sorted(splits):
        atoms_by_low.setdefault(atom & -atom, []).append((atom, _proper_submasks(atom)))
    weight = dict.fromkeys(symbols, 1)
    costs = [0] * (1 << len(u.words))
    for c in range(1, len(costs)):
        if c in splits:
            weight[c] = min(costs[a] + costs[b] for a, b in splits[c])
        costs[c] = min(
            weight[atom] + costs[(c ^ atom) | sub]
            for atom, subs in atoms_by_low[c & -c] if atom & c == atom
            for sub in subs
        )
    return CostTable(universe=u, costs=costs)


def is_fixpoint(table: CostTable) -> bool:
    """No concatenation, and no union of a language with an atom, undercuts a cost.

    Adding one atom at a time, the union check bounds cost(X | Y) by
    cost(X) plus the cost of any atom cover of Y.
    """
    costs = table.costs
    triples = _concat_splits(table.universe)
    if any(costs[a] + costs[b] < costs[c] for a, b, c in triples):
        return False
    atoms = {c for _, _, c in triples}
    atoms.update(1 << i for i, w in enumerate(table.universe.words) if len(w) == 1)
    return all(costs[x | atom] <= costs[x] + costs[atom]
               for atom in atoms for x in range(len(costs)))


@functools.cache
def _table_for(n: int) -> CostTable:
    return minimal_cost_table(build_universe(n))


def ell(n: int, k: int) -> int:
    """Minimum cost over languages of at least k full permutations of {1..n}."""
    table = _table_for(n)
    perm_indices = table.universe.permutation_indices
    total = len(perm_indices)
    if not 1 <= k <= total:
        raise InvalidArgs(f"k must be in [1, {total}], got {k}")
    # The permutations are the last n! words, so their masks are shifted bits.
    return min(table.costs[bits << perm_indices[0]]
               for bits in range(1, 1 << total) if bits.bit_count() >= k)


def languages_by_cost(n: int) -> list[tuple[int, int]]:
    """(cost, number of nonempty languages whose minimal cost it is), by cost."""
    return sorted(Counter(_table_for(n).costs[1:]).items())


@dataclass(frozen=True)
class MainOptReport:
    """Exact-rational check that per-permutation cost is minimized by P_n."""

    n: int
    passed: bool
    matches_f: bool
    base_ratio: Fraction
    rows: tuple[tuple[int, int, Fraction], ...]  # (k, ell(n, k), ell/k)
    tightest_k: int
    semantics: str = STAR_FREE_SEMANTICS


def check_main_opt(n: int) -> MainOptReport:
    """Verify ell(n,k)/k >= ell(n,n!)/n! = f(n)/n! for every 1 <= k <= n!."""
    factorial = math.factorial(n)
    full_cost = ell(n, factorial)
    matches_f = full_cost == lengths.f(n)
    base_ratio = Fraction(full_cost, factorial)
    rows: list[tuple[int, int, Fraction]] = []
    passed = matches_f
    tightest_k = factorial
    tightest_ratio = None
    for k in range(1, factorial + 1):
        value = ell(n, k)
        ratio = Fraction(value, k)
        rows.append((k, value, ratio))
        if ratio < base_ratio:
            passed = False
        if tightest_ratio is None or ratio < tightest_ratio:
            tightest_ratio = ratio
            tightest_k = k
    return MainOptReport(
        n=n,
        passed=passed,
        matches_f=matches_f,
        base_ratio=base_ratio,
        rows=tuple(rows),
        tightest_k=tightest_k,
    )
