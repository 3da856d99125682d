"""Brute-force minimal alphabetic lengths over tiny alphabets.

This module does not trust the builders.  It enumerates every language
expressible over the distinct-symbol word universe for n <= 3 with
union and concatenation only, and computes each one's minimal
alphabetic length by a least-fixpoint search.  Confirming that the
permutation language's minimal cost equals f(n) is the package's
independent optimality check at desk scale.

Search strategy: languages are bitmasks over the indexed universe.
Costs are settled in increasing order t = 1, 2, 3, ...: a language
costs t when some union A | B = C or admissible concatenation A . B = C
splits it into parts already settled at costs summing to t.  Because
both operands of a split always cost at least 1, their costs are
strictly below t, so one ascending pass is the least fixpoint.  Union
candidates at each level are found with subset-lattice zeta/Moebius
transforms (numpy) instead of looping over all mask pairs; the result
is identical to relaxation sweeps but runs in well under a second.
Concatenation is only admissible when the two sides' symbol supports
are disjoint (otherwise some concatenated word repeats a symbol and
leaves the universe), which makes the admissible pairs enumerable
directly.

Star and the empty word are deliberately absent from the operator set:
adding them can only pad a finite distinct-symbol language's
expression.  Every report carries that proviso in its `semantics`
field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lengths
from .errors import CapExceeded, InvalidArgs

ORACLE_CAP = 3
STAR_FREE_SEMANTICS = "union+concat only (star-free, epsilon-free)"

_INF = np.int64(1) << np.int64(40)


@dataclass(frozen=True)
class WordUniverse:
    """All nonempty distinct-symbol words over {1..n}, in (length, lex) order."""

    n: int
    words: tuple[tuple[int, ...], ...]

    def word_index(self, word: tuple[int, ...]) -> int:
        return self.words.index(word)

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


def _zeta(values: np.ndarray, width: int) -> np.ndarray:
    # Subset-sum transform: out[S] = sum of values[T] over T subset of S.
    out = values.copy()
    for i in range(width):
        shaped = out.reshape(-1, 2, 1 << i)
        shaped[:, 1, :] += shaped[:, 0, :]
    return out


def _moebius(values: np.ndarray, width: int) -> np.ndarray:
    out = values.copy()
    for i in range(width):
        shaped = out.reshape(-1, 2, 1 << i)
        shaped[:, 1, :] -= shaped[:, 0, :]
    return out


def _support_mask(word: tuple[int, ...]) -> int:
    mask = 0
    for s in word:
        mask |= 1 << (s - 1)
    return mask


def _concat_splits(u: WordUniverse) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All admissible (A, B, A.B) mask triples.

    Admissible means the symbol supports of A and B are disjoint, which is
    exactly the condition for every concatenated word to stay inside the
    distinct-symbol universe.  Triples are enumerated per ordered pair of
    disjoint support sets; sides range over all nonempty word subsets there.
    """
    index_of = {w: i for i, w in enumerate(u.words)}
    by_support: dict[int, list[int]] = {}
    full = (1 << u.n) - 1
    for sup in range(1, full + 1):
        by_support[sup] = [
            i for i, w in enumerate(u.words) if _support_mask(w) & ~sup == 0
        ]
    a_masks: list[int] = []
    b_masks: list[int] = []
    c_masks: list[int] = []
    for sup_a in range(1, full + 1):
        for sup_b in range(1, full + 1):
            if sup_a & sup_b:
                continue
            words_a = by_support[sup_a]
            words_b = by_support[sup_b]
            for bits_a in range(1, 1 << len(words_a)):
                chosen_a = [words_a[i] for i in range(len(words_a)) if bits_a >> i & 1]
                mask_a = sum(1 << i for i in chosen_a)
                for bits_b in range(1, 1 << len(words_b)):
                    chosen_b = [words_b[i] for i in range(len(words_b)) if bits_b >> i & 1]
                    mask_b = sum(1 << i for i in chosen_b)
                    mask_c = 0
                    for ia in chosen_a:
                        for ib in chosen_b:
                            mask_c |= 1 << index_of[u.words[ia] + u.words[ib]]
                    a_masks.append(mask_a)
                    b_masks.append(mask_b)
                    c_masks.append(mask_c)
    return (
        np.asarray(a_masks, dtype=np.int64),
        np.asarray(b_masks, dtype=np.int64),
        np.asarray(c_masks, dtype=np.int64),
    )


@dataclass(frozen=True)
class CostTable:
    """Minimal alphabetic length of every expressible nonempty language."""

    universe: WordUniverse
    costs: np.ndarray  # int64 per mask; index 0 (empty language) stays infinite

    def cost(self, mask: int) -> int:
        if not 0 < mask < 1 << len(self.universe.words):
            raise InvalidArgs(f"language mask out of range: {mask}")
        value = int(self.costs[mask])
        if value >= int(_INF):
            raise InvalidArgs(f"language mask {mask} is not expressible")
        return value

    def cost_of_words(self, words) -> int:
        mask = 0
        for w in words:
            mask |= 1 << self.universe.word_index(tuple(w))
        return self.cost(mask)


def minimal_cost_table(u: WordUniverse) -> CostTable:
    """Least fixpoint of the union/concatenation cost relaxation."""
    width = len(u.words)
    size = 1 << width
    costs = np.full(size, _INF, dtype=np.int64)
    for i, w in enumerate(u.words):
        if len(w) == 1:
            costs[1 << i] = 1
    split_a, split_b, split_c = _concat_splits(u)
    split_sums = None
    zeta_by_cost: dict[int, np.ndarray] = {
        1: _zeta((costs == 1).astype(np.int64), width)
    }
    settled = int((costs < _INF).sum())
    target = size - 1
    max_cost = sum(len(w) for w in u.words)  # union of all singletons
    t = 2
    while settled < target:
        assert t <= max_cost, "some language failed to settle within the cost bound"
        pair_counts = None
        for low in range(1, t // 2 + 1):
            high = t - low
            z_low = zeta_by_cost.get(low)
            z_high = zeta_by_cost.get(high)
            if z_low is None or z_high is None:
                continue
            product = z_low * z_high
            pair_counts = product if pair_counts is None else pair_counts + product
        if pair_counts is not None:
            counts = _moebius(pair_counts, width)
            costs[(counts > 0) & (costs == _INF)] = t
        if len(split_a):
            split_sums = costs[split_a] + costs[split_b]
            reachable = split_c[split_sums == t]
            if len(reachable):
                current = costs[reachable]
                costs[reachable] = np.minimum(current, np.int64(t))
        fresh = costs == t
        new_count = int(fresh.sum())
        if new_count:
            zeta_by_cost[t] = _zeta(fresh.astype(np.int64), width)
            settled += new_count
        t += 1
    return CostTable(universe=u, costs=costs)


def is_fixpoint(table: CostTable) -> bool:
    """One more full relaxation sweep must not lower any cost."""
    u = table.universe
    width = len(u.words)
    costs = table.costs
    split_a, split_b, split_c = _concat_splits(u)
    if len(split_a):
        improved = costs[split_a] + costs[split_b] < costs[split_c]
        if bool(improved.any()):
            return False
    # Union side: the cheapest one-step union cost for every mask, exactly.
    finite_costs = sorted({int(c) for c in np.unique(costs) if c < int(_INF)})
    zetas = {
        c: _zeta((costs == c).astype(np.int64), width) for c in finite_costs
    }
    best_union = np.full(1 << width, _INF, dtype=np.int64)
    sums = sorted({a + b for a in finite_costs for b in finite_costs})
    for total in sums:
        pair_counts = None
        for low in finite_costs:
            high = total - low
            if high < low:
                break
            if high not in zetas:
                continue
            product = zetas[low] * zetas[high]
            pair_counts = product if pair_counts is None else pair_counts + product
        if pair_counts is None:
            continue
        counts = _moebius(pair_counts, width)
        newly = (counts > 0) & (best_union == _INF)
        best_union[newly] = total
    return not bool((best_union < costs).any())


_table_cache: dict[int, CostTable] = {}


def _table_for(n: int) -> CostTable:
    table = _table_cache.get(n)
    if table is None:
        table = minimal_cost_table(build_universe(n))
        _table_cache[n] = table
    return table


def ell(n: int, k: int) -> int:
    """Minimum cost over languages of at least k full permutations of {1..n}."""
    table = _table_for(n)
    u = table.universe
    perm_indices = u.permutation_indices
    total = len(perm_indices)
    if not 1 <= k <= total:
        raise InvalidArgs(f"k must be in [1, {total}], got {k}")
    best = None
    for bits in range(1, 1 << total):
        if bits.bit_count() < k:
            continue
        mask = 0
        for i in range(total):
            if bits >> i & 1:
                mask |= 1 << perm_indices[i]
        cost = int(table.costs[mask])
        if best is None or cost < best:
            best = cost
    assert best is not None and best < int(_INF)
    return best


def languages_by_cost(n: int) -> list[tuple[int, int]]:
    """(cost, number of nonempty languages whose minimal cost it is), by cost."""
    costs, counts = np.unique(_table_for(n).costs[1:], return_counts=True)
    return list(zip(costs.tolist(), counts.tolist()))


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
