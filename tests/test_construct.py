import collections

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


def test_dnc_matches_published_display_for_n4():
    expr = construct.build_divide_and_conquer(4)
    assert regex_ast.render(expr, "compact") == R4_COMPACT


def test_tail_matches_published_display_for_n4():
    expr = construct.build_tail_recursive(4)
    assert regex_ast.render(expr, "compact") == TAIL4_COMPACT


def test_builders_tiny_cases():
    assert regex_ast.render(
        construct.build_divide_and_conquer(1), "compact") == "1"
    assert regex_ast.render(
        construct.build_divide_and_conquer(2), "compact") == "12+21"
    assert regex_ast.render(
        construct.build_tail_recursive(2), "compact") == "12+21"
    assert regex_ast.render(
        construct.build_flat_union(2), "compact") == "12+21"


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 13))
def test_dnc_length_is_f(n):
    # n = 13 is the largest size under the default symbol cap; the cap is
    # doing real work, since the shared DAG grows with C(n, n/2).
    expr = construct.build_divide_and_conquer(n)
    assert regex_ast.alphabetic_length(expr) == lengths.f(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_tail_length_is_t(n):
    expr = construct.build_tail_recursive(n)
    assert regex_ast.alphabetic_length(expr) == lengths.t(n)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 7))
def test_flat_length_is_n_factorial_n(n):
    expr = construct.build_flat_union(n)
    assert regex_ast.alphabetic_length(expr) == lengths.flat_length(n)


def test_dnc_shares_subproblems_across_the_union():
    expr = construct.build_divide_and_conquer(8)
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
    expr = construct.build_flat_union(5)
    assert kinds(expr) == {"Sym": 5, "Concat": 320, "Union": 1}
    assert calls == {"Sym": 5, "Concat": 320, "union_of": 1}
    assert len(expr.terms) == 120


def test_builder_dags_have_pinned_node_counts():
    # One n-ary union per subset of two or more symbols the halving reaches,
    # one Concat per union term, and one Sym per symbol.
    assert kinds(construct.build_divide_and_conquer(12)) == {
        "Sym": 12, "Concat": 20_196, "Union": 1_211}
    assert kinds(construct.build_flat_union(8)) == {
        "Sym": 8, "Concat": 109_592, "Union": 1}


BUILDERS = {
    "dnc": construct.build_divide_and_conquer,
    "tail": construct.build_tail_recursive,
    "flat": construct.build_flat_union,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_parse_of_rendering_is_the_built_dag(name):
    for n in range(1, 8):
        expr = BUILDERS[name](n)
        for fmt in ("compact", "spaced"):
            assert regex_ast.parse(regex_ast.render(expr, fmt), n) is expr


@pytest.mark.parametrize("name", ["dnc", "tail"])
def test_parse_of_wide_rendering_is_the_built_dag(name):
    expr = BUILDERS[name](10)
    assert regex_ast.parse(regex_ast.render(expr, "spaced"), 10) is expr


def test_size_caps_refuse_before_building():
    # f(13) fits in MAX_SYMBOLS, f(14) does not; t(10) fits, t(11) does not.
    assert lengths.f(13) < construct.MAX_SYMBOLS < lengths.f(14)
    assert lengths.t(10) < construct.MAX_SYMBOLS < lengths.t(11)
    assert lengths.flat_length(construct.FLAT_CAP) < construct.MAX_SYMBOLS
    with pytest.raises(SizeCap) as info:
        construct.build_divide_and_conquer(14)
    assert info.value.predicted == lengths.f(14)
    with pytest.raises(SizeCap) as info:
        construct.build_tail_recursive(11)
    assert info.value.predicted == lengths.t(11)
    with pytest.raises(SizeCap) as info:
        construct.build_flat_union(construct.FLAT_CAP + 1)
    assert info.value.cap == construct.FLAT_CAP


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_refuse_an_empty_alphabet(name):
    with pytest.raises(InvalidArgs) as info:
        BUILDERS[name](0)
    assert str(info.value) == "alphabet size must be >= 1, got 0"


def test_flat_refusal_is_the_builders():
    for n in [0, 9, 100, 10**8]:
        with pytest.raises((InvalidArgs, SizeCap)) as early:
            construct.require_flat_fits(n)
        with pytest.raises(type(early.value)) as late:
            construct.build_flat_union(n)
        assert str(early.value) == str(late.value)
    construct.require_flat_fits(construct.FLAT_CAP)  # fits


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
            build(n)
        assert (info.value.predicted, info.value.cap) == (n, fits)
        assert str(info.value) == f"refusing to build: {n} alphabet symbols exceeds cap {fits}"
    for build in BUILDERS.values():
        with pytest.raises(SizeCap) as info:
            build(10**8)
        assert (info.value.predicted, info.value.cap) == (10**8, construct.MAX_SYMBOLS)
