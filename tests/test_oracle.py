import hashlib
import itertools
import math
import re
from fractions import Fraction

import pytest

from permrex import lengths, oracle
from permrex.errors import CapExceeded, InvalidArgs

# Frozen output of the exhaustive search (minimum alphabetic length of a
# union/concat expression covering at least k permutations of {1..n}).
ELL_N3 = {1: 3, 2: 5, 3: 8, 4: 10, 5: 13, 6: 15}
ELL_N2 = {1: 2, 2: 4}

# sha256 of bytes(costs[1:]): every minimal cost of the n = 1, 2, 3 tables,
# as an independent search (per-cost levels of unions found by subset-sum
# transforms) computed them.
COST_TABLE_SHA256 = {
    1: "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    2: "2c3827d60bff34f60dbe2994afaf2264571b332568d472b7d1f709007ca17974",
    3: "84a1b9c4e157cafe137c199a942368cf8b66bd64ab50f686de0be65cf61ee6ac",
}


def test_universe_order_and_contents():
    u = oracle.build_universe(2)
    assert u.words == ((1,), (2,), (1, 2), (2, 1))
    u3 = oracle.build_universe(3)
    assert len(u3.words) == 15
    assert u3.words[:3] == ((1,), (2,), (3,))
    assert u3.words[3:9] == (
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
    assert u3.permutation_indices == (9, 10, 11, 12, 13, 14)
    lengths_seen = [len(w) for w in u3.words]
    assert lengths_seen == sorted(lengths_seen)


def test_universe_caps():
    with pytest.raises(InvalidArgs):
        oracle.build_universe(0)
    with pytest.raises(CapExceeded):
        oracle.build_universe(4)


@pytest.mark.parametrize("word", [(1, 1), (4,)])
def test_word_outside_universe_is_refused(word):
    table = oracle.minimal_cost_table(oracle.build_universe(3))
    message = re.escape(f"word {word} is not a distinct-symbol word over 1..3")
    with pytest.raises(InvalidArgs, match=message):
        table.universe.word_index(word)
    with pytest.raises(InvalidArgs, match=message):
        table.cost_of_words([word])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_cost_matches_frozen_table(n):
    table = oracle.minimal_cost_table(oracle.build_universe(n))
    assert len(table.costs) == 1 << len(table.universe.words)
    assert hashlib.sha256(bytes(table.costs[1:])).hexdigest() == COST_TABLE_SHA256[n]


def test_singleton_costs_equal_word_lengths():
    for n in (1, 2, 3):
        table = oracle.minimal_cost_table(oracle.build_universe(n))
        for i, word in enumerate(table.universe.words):
            assert table.cost(1 << i) == len(word), word


def test_every_nonempty_language_is_expressible():
    for n in (1, 2, 3):
        table = oracle.minimal_cost_table(oracle.build_universe(n))
        size = 1 << len(table.universe.words)
        for mask in range(1, size):
            assert table.cost(mask) >= 1


def test_cost_of_permutation_language_matches_f():
    for n in (1, 2, 3):
        table = oracle.minimal_cost_table(oracle.build_universe(n))
        perms = [w for w in table.universe.words if len(w) == n]
        assert len(perms) == math.factorial(n)
        assert table.cost_of_words(perms) == lengths.f(n)


def test_relaxation_is_a_fixpoint():
    for n in (1, 2, 3):
        table = oracle.minimal_cost_table(oracle.build_universe(n))
        assert oracle.is_fixpoint(table)


def test_costs_are_subadditive_under_union():
    # Exhaustive at n = 2: 255 x 255 mask pairs is small enough.
    table = oracle.minimal_cost_table(oracle.build_universe(2))
    size = 1 << len(table.universe.words)
    for a in range(1, size):
        for b in range(1, size):
            assert table.cost(a | b) <= table.cost(a) + table.cost(b)


def test_concat_cost_examples():
    table = oracle.minimal_cost_table(oracle.build_universe(3))
    u = table.universe
    # {12} followed by nothing else: singleton costs.
    assert table.cost_of_words([(1, 2)]) == 2
    # {123, 132} = 1 . (23 + 32): f-style sharing beats listing words.
    assert table.cost_of_words([(1, 2, 3), (1, 3, 2)]) == 5
    # {12, 21} needs both two-symbol words spelled out.
    assert table.cost_of_words([(1, 2), (2, 1)]) == 4
    # All six permutations: the halved-split value.
    assert table.cost_of_words(list(itertools.permutations((1, 2, 3)))) == 15


def test_ell_frozen_values():
    assert {k: oracle.ell(2, k) for k in ELL_N2} == ELL_N2
    assert {k: oracle.ell(3, k) for k in ELL_N3} == ELL_N3
    assert oracle.ell(1, 1) == 1


def test_ell_monotone_in_k():
    for n in (2, 3):
        top = math.factorial(n)
        values = [oracle.ell(n, k) for k in range(1, top + 1)]
        assert values == sorted(values)


def test_ell_validates_k():
    with pytest.raises(InvalidArgs):
        oracle.ell(3, 0)
    with pytest.raises(InvalidArgs):
        oracle.ell(3, 7)


def test_per_permutation_ratio_never_beats_full_language():
    for n in (1, 2, 3):
        base = Fraction(lengths.f(n), math.factorial(n))
        for k in range(1, math.factorial(n) + 1):
            assert Fraction(oracle.ell(n, k), k) >= base, (n, k)


def test_check_main_opt_reports():
    r2 = oracle.check_main_opt(2)
    assert r2.passed and r2.matches_f
    assert r2.base_ratio == 2
    assert r2.tightest_k == 1  # ell(2,1)/1 = 2 ties the full language
    r3 = oracle.check_main_opt(3)
    assert r3.passed and r3.matches_f
    assert r3.base_ratio == Fraction(5, 2)
    assert r3.tightest_k == 2  # ell(3,2)/2 = 5/2 ties the full language
    assert r3.rows == tuple(
        (k, ELL_N3[k], Fraction(ELL_N3[k], k)) for k in range(1, 7))
    assert "star-free" in r3.semantics
