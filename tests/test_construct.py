import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrex import construct, lengths, regex_ast
from permrex.errors import InvalidArgs, SizeCap

# Published display form of the halved-split regex for n = 4, compact.
R4_COMPACT = (
    "(12+21)(34+43)+(13+31)(24+42)+(23+32)(14+41)"
    "+(14+41)(23+32)+(24+42)(13+31)+(34+43)(12+21)"
)

# Published display form of the one-symbol-at-a-time regex for n = 4.
TAIL4_COMPACT = (
    "1(2(34+43)+3(24+42)+4(23+32))"
    "+2(1(34+43)+3(14+41)+4(13+31))"
    "+3(1(24+42)+2(14+41)+4(12+21))"
    "+4(1(23+32)+2(13+31)+3(12+21))"
)


def first_n(n):
    return construct.AlphabetSet.first_n(n)


def test_alphabet_set_validation():
    assert first_n(3).members == (1, 2, 3)
    assert first_n(3).n == 3
    with pytest.raises(InvalidArgs):
        construct.AlphabetSet(())
    with pytest.raises(InvalidArgs):
        construct.AlphabetSet((2, 1))
    with pytest.raises(InvalidArgs):
        construct.AlphabetSet((1, 1))
    with pytest.raises(InvalidArgs):
        construct.AlphabetSet((0, 1))
    with pytest.raises(InvalidArgs):
        construct.AlphabetSet.first_n(0)


def test_alphabet_set_replace_validates():
    assert first_n(3)._replace(members=(2, 5)) == construct.AlphabetSet((2, 5))
    for members in [(), (2, 1)]:
        with pytest.raises(InvalidArgs):
            first_n(3)._replace(members=members)


def test_dnc_matches_published_display_for_n4():
    expr = construct.build_divide_and_conquer(first_n(4))
    assert regex_ast.render(expr, "compact") == R4_COMPACT


def test_tail_matches_published_display_for_n4():
    expr = construct.build_tail_recursive(first_n(4))
    assert regex_ast.render(expr, "compact") == TAIL4_COMPACT


def test_builders_tiny_cases():
    assert regex_ast.render(
        construct.build_divide_and_conquer(first_n(1)), "compact") == "1"
    assert regex_ast.render(
        construct.build_divide_and_conquer(first_n(2)), "compact") == "12+21"
    assert regex_ast.render(
        construct.build_tail_recursive(first_n(2)), "compact") == "12+21"
    assert regex_ast.render(
        construct.build_flat_union(first_n(2)), "compact") == "12+21"


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 13))
def test_dnc_length_is_f(n):
    # n = 13 is the largest size under the default symbol cap; the cap is
    # doing real work, since the shared DAG grows with C(n, n/2).
    expr = construct.build_divide_and_conquer(first_n(n))
    assert regex_ast.alphabetic_length(expr) == lengths.f(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_tail_length_is_t(n):
    expr = construct.build_tail_recursive(first_n(n))
    assert regex_ast.alphabetic_length(expr) == lengths.t(n)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 7))
def test_flat_length_is_n_factorial_n(n):
    expr = construct.build_flat_union(first_n(n))
    assert regex_ast.alphabetic_length(expr) == lengths.flat_length(n)


def test_builders_work_on_sparse_alphabets():
    from permrex import verify

    sparse = construct.AlphabetSet((2, 5, 9))
    expected = set(itertools.permutations((2, 5, 9)))
    for build in (construct.build_divide_and_conquer,
                  construct.build_tail_recursive,
                  construct.build_flat_union):
        expr = build(sparse)
        accepted = {
            word
            for length in range(0, 4)
            for word in itertools.product((2, 5, 9), repeat=length)
            if verify.naive_matches(expr, word)
        }
        assert accepted == expected


def test_dnc_shares_subproblems_across_the_union():
    expr = construct.build_divide_and_conquer(first_n(8))
    nodes = sum(1 for _ in regex_ast.postorder(expr))
    # Alphabetic length counts occurrences (6720 at n = 8); the shared
    # DAG must be far smaller than the fully expanded tree.
    assert nodes < 2500


def kinds(expr):
    """Distinct nodes of `expr` by kind name."""
    return collections.Counter(type(node).__name__ for node in regex_ast.postorder(expr))


def test_flat_union_builds_each_prefix_once(monkeypatch):
    # 5 + 20 + 60 + 120 + 120 distinct prefixes: the first symbol of each
    # is a Sym, every longer one a Concat.  Each is constructed once.
    calls = collections.Counter()
    for build in (regex_ast.Sym, regex_ast.Concat, regex_ast.union_of):
        def counted(*args, build=build):
            calls[build.__name__] += 1
            return build(*args)
        monkeypatch.setattr(construct, build.__name__, counted)
    expr = construct.build_flat_union(first_n(5))
    assert kinds(expr) == {"Sym": 5, "Concat": 320, "Union": 1}
    assert calls == {"Sym": 5, "Concat": 320, "union_of": 1}
    assert len(expr.terms) == 120


def test_builder_dags_have_pinned_node_counts():
    # One n-ary union per subset of two or more symbols the halving reaches,
    # one Concat per union term, and one Sym per symbol.
    assert kinds(construct.build_divide_and_conquer(first_n(12))) == {
        "Sym": 12, "Concat": 20_196, "Union": 1_211}
    assert kinds(construct.build_flat_union(first_n(8))) == {
        "Sym": 8, "Concat": 109_592, "Union": 1}


BUILDERS = {
    "dnc": construct.build_divide_and_conquer,
    "tail": construct.build_tail_recursive,
    "flat": construct.build_flat_union,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_parse_of_rendering_is_the_built_dag(name):
    for n in range(1, 8):
        expr = BUILDERS[name](first_n(n))
        for fmt in ("compact", "spaced"):
            assert regex_ast.parse(regex_ast.render(expr, fmt), n) is expr


@pytest.mark.parametrize("name", ["dnc", "tail"])
def test_parse_of_wide_rendering_is_the_built_dag(name):
    expr = BUILDERS[name](first_n(10))
    assert regex_ast.parse(regex_ast.render(expr, "spaced"), 10) is expr


def test_size_caps_refuse_before_building():
    # f(13) fits in MAX_SYMBOLS, f(14) does not; t(10) fits, t(11) does not.
    assert lengths.f(13) < construct.MAX_SYMBOLS < lengths.f(14)
    assert lengths.t(10) < construct.MAX_SYMBOLS < lengths.t(11)
    assert lengths.flat_length(construct.FLAT_CAP) < construct.MAX_SYMBOLS
    with pytest.raises(SizeCap) as info:
        construct.build_divide_and_conquer(first_n(14))
    assert info.value.predicted == lengths.f(14)
    with pytest.raises(SizeCap) as info:
        construct.build_tail_recursive(first_n(11))
    assert info.value.predicted == lengths.t(11)
    with pytest.raises(SizeCap) as info:
        construct.build_flat_union(first_n(construct.FLAT_CAP + 1))
    assert info.value.cap == construct.FLAT_CAP


@pytest.mark.parametrize("name, build, ns", [
    ("dnc", construct.build_divide_and_conquer, [0, 14, 15, 100, 10**8]),
    ("tail", construct.build_tail_recursive, [0, 11, 12, 100, 10**8]),
    ("flat", construct.build_flat_union, [0, 9, 100, 10**8]),
])
def test_require_buildable_refuses_as_the_builder_does(name, build, ns):
    for n in ns:
        with pytest.raises((InvalidArgs, SizeCap)) as early:
            construct.require_buildable(name, n)
        with pytest.raises(type(early.value)) as late:
            build(first_n(n))
        assert str(early.value) == str(late.value)
    construct.require_buildable(name, 1)  # fits


def test_huge_alphabets_refused_on_their_size(monkeypatch):
    # Lengths grow with n, so past the first n over the cap none is computed,
    # and no alphabet larger than the symbol cap is materialized.
    def small_only(length):
        def guarded(n):
            assert n <= 14, f"length computed at n = {n}"
            return length(n)
        return guarded

    monkeypatch.setattr(lengths, "f", small_only(lengths.f))
    monkeypatch.setattr(lengths, "t", small_only(lengths.t))
    for build, n, fits in [(construct.build_divide_and_conquer, 15, 13),
                           (construct.build_divide_and_conquer, 10**6, 13),
                           (construct.build_tail_recursive, 12, 10),
                           (construct.build_tail_recursive, 2 * 10**5, 10)]:
        with pytest.raises(SizeCap) as info:
            build(first_n(n))
        assert (info.value.predicted, info.value.cap) == (n, fits)
        assert str(info.value) == f"refusing to build: {n} alphabet symbols exceeds cap {fits}"
    with pytest.raises(SizeCap) as info:
        first_n(10**8)
    assert (info.value.predicted, info.value.cap) == (10**8, construct.MAX_SYMBOLS)
