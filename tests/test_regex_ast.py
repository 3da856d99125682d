import copy
import pickle

import pytest
from hypothesis import given, settings

from permrex import regex_ast as ra
from permrex.errors import CompactOverflow, RegexSyntaxError, SymbolOutOfRange

from conftest import any_regexes, normal_form_regexes


def sym(i):
    return ra.Sym(i)


def test_alphabetic_length_counts_symbol_occurrences():
    expr = ra.Union(ra.Concat(sym(1), sym(2)), ra.Concat(sym(2), sym(1)))
    assert ra.alphabetic_length(expr) == 4
    assert ra.alphabetic_length(ra.Epsilon()) == 0
    assert ra.alphabetic_length(ra.EmptySet()) == 0
    assert ra.alphabetic_length(ra.Star(sym(3))) == 1


def test_alphabetic_length_counts_shared_nodes_per_occurrence():
    shared = ra.Union(sym(1), sym(2))
    expr = ra.Concat(shared, shared)
    assert ra.alphabetic_length(expr) == 4


def test_metrics():
    expr = ra.Union(ra.Concat(sym(1), sym(2)), sym(3))
    m = ra.metrics(expr)
    assert m.alphabetic_length == 3
    assert m.node_count == 5
    assert m.height == 2
    assert ra.metrics(sym(1)).height == 0


def test_structural_equality_and_hash():
    a = ra.Union(ra.Concat(sym(1), sym(2)), ra.Star(sym(3)))
    b = ra.Union(ra.Concat(sym(1), sym(2)), ra.Star(sym(3)))
    c = ra.Union(ra.Concat(sym(2), sym(1)), ra.Star(sym(3)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert a != "not a regex"
    assert ra.Epsilon() == ra.Epsilon()
    assert ra.EmptySet() != ra.Epsilon()


def test_construction_interns_nodes():
    assert ra.Union(sym(1), sym(2)) is ra.Union(sym(1), sym(2))
    assert ra.Epsilon() is ra.Epsilon()
    assert ra.Concat(sym(1), sym(2)) is not ra.Union(sym(1), sym(2))
    with pytest.raises(AttributeError):
        sym(1).sym = 2
    expr = ra.Concat(ra.Star(ra.Union(sym(1), sym(2))), ra.EmptySet())
    assert copy.deepcopy(expr) is expr
    assert pickle.loads(pickle.dumps(expr)) is expr


def test_postorder_yields_each_distinct_node_after_its_children():
    shared = ra.Union(sym(1), sym(2))
    expr = ra.Concat(ra.Star(shared), shared)
    assert list(ra.postorder(expr)) == [
        sym(1), sym(2), shared, ra.Star(shared), expr]


def test_fold_combines_each_distinct_node_once():
    shared = ra.Union(sym(1), sym(2))
    calls = []

    def count(node, *kids):
        calls.append(node)
        return 1 + sum(kids)

    assert ra.fold(ra.Concat(shared, shared), count) == 7
    assert len(calls) == 4


def test_deep_chain_operations_do_not_recurse():
    expr = sym(1)
    for _ in range(200_000):
        expr = ra.Concat(expr, sym(1))
    assert ra.alphabetic_length(expr) == 200_001
    assert ra.metrics(expr).height == 200_000
    assert expr == expr
    hash(expr)


def test_render_compact():
    expr = ra.Union(ra.Concat(sym(1), sym(2)), ra.Concat(sym(2), sym(1)))
    assert ra.render(expr, "compact") == "12+21"
    assert ra.render(ra.Star(expr), "compact") == "(12+21)*"
    assert ra.render(ra.Epsilon(), "compact") == "e"
    assert ra.render(ra.EmptySet(), "compact") == "&"


def test_render_spaced():
    expr = ra.Concat(ra.Union(sym(1), sym(2)), sym(3))
    assert ra.render(expr, "spaced") == "( 1 + 2 ) 3"


def test_render_precedence_parentheses():
    inner = ra.Union(sym(1), sym(2))
    assert ra.render(ra.Concat(inner, sym(3)), "compact") == "(1+2)3"
    assert ra.render(ra.Star(sym(1)), "compact") == "1*"
    assert ra.render(ra.Star(ra.Concat(sym(1), sym(2))), "compact") == "(12)*"


def test_render_shared_node_under_different_parentheses():
    u = ra.Union(sym(1), sym(2))
    assert ra.render(ra.Union(ra.Concat(u, sym(3)), u), "compact") == "(1+2)3+1+2"
    assert ra.render(ra.Concat(ra.Star(u), u), "compact") == "(1+2)*(1+2)"
    assert ra.render(ra.Concat(ra.Star(u), u), "spaced") == "( 1 + 2 ) * ( 1 + 2 )"


def test_render_compact_rejects_wide_symbols():
    with pytest.raises(CompactOverflow):
        ra.render(ra.Sym(10), "compact")


def test_render_spaced_handles_wide_symbols():
    expr = ra.Concat(ra.Sym(10), ra.Sym(11))
    assert ra.render(expr, "spaced") == "10 11"


def test_parse_compact_splits_digit_runs_for_small_alphabets():
    expr = ra.parse("12+21", 2)
    assert expr == ra.Union(
        ra.Concat(sym(1), sym(2)), ra.Concat(sym(2), sym(1)))


def test_parse_reads_whole_numbers_for_wide_alphabets():
    expr = ra.parse("10 11", 12)
    assert expr == ra.Concat(ra.Sym(10), ra.Sym(11))


def test_parse_specials_and_star():
    expr = ra.parse("(1+e)*&", 1)
    assert expr == ra.Concat(
        ra.Star(ra.Union(sym(1), ra.Epsilon())), ra.EmptySet())


@pytest.mark.parametrize(
    "text,n,exc",
    [
        ("1+", 2, RegexSyntaxError),
        ("+1", 2, RegexSyntaxError),
        ("*1", 2, RegexSyntaxError),
        ("(1", 2, RegexSyntaxError),
        ("1)", 2, RegexSyntaxError),
        ("()", 2, RegexSyntaxError),
        ("", 1, RegexSyntaxError),
        ("5", 3, SymbolOutOfRange),
        ("0", 3, SymbolOutOfRange),
        ("1 ?", 3, RegexSyntaxError),
    ],
)
def test_parse_rejects_malformed_input(text, n, exc):
    with pytest.raises(exc):
        ra.parse(text, n)


def test_parse_refuses_oversized_symbol_ids_before_converting_them():
    # 5000 digits is past Python's int() limit; the message shows 20 of them.
    with pytest.raises(SymbolOutOfRange) as info:
        ra.parse("1 " + "9" * 5000, 10)
    message = str(info.value)
    assert "(5000 digits) outside [1, 10] at offset 2" in message
    assert len(message) < 100
    with pytest.raises(SymbolOutOfRange, match="symbol 100 outside"):
        ra.parse("0100", 10)
    # Leading zeros do not count, however many there are.
    assert ra.parse("0" * 5000 + "7 010", 10) is ra.Concat(ra.Sym(7), ra.Sym(10))


@pytest.mark.parametrize("text, n, offset", [
    ("\uff11\uff12+\uff12\uff11", 2, 0),   # fullwidth 12+21
    ("12+2\u0661", 2, 4),                     # Arabic-Indic one
    ("1 \uff12", 12, 2),
    ("1\uff12", 12, 1),                       # not the id 12
])
def test_parse_takes_only_ascii_digits_as_symbols(text, n, offset):
    with pytest.raises(RegexSyntaxError, match="unexpected character") as info:
        ra.parse(text, n)
    assert info.value.offset == offset


def test_parse_error_carries_offset():
    with pytest.raises(RegexSyntaxError) as info:
        ra.parse("12+(3", 3)
    assert info.value.offset == 5


@settings(max_examples=200)
@given(normal_form_regexes(n=3))
def test_round_trip_exact_for_normal_form(expr):
    for fmt in ("compact", "spaced"):
        again = ra.parse(ra.render(expr, fmt), 3)
        assert again is expr


@settings(max_examples=200)
@given(any_regexes(n=3))
def test_render_is_stable_under_reparse(expr):
    text = ra.render(expr, "compact")
    assert ra.render(ra.parse(text, 3), "compact") == text


@settings(max_examples=200)
@given(any_regexes(n=12))
def test_spaced_round_trip_preserves_length(expr):
    again = ra.parse(ra.render(expr, "spaced"), 12)
    assert ra.alphabetic_length(again) == ra.alphabetic_length(expr)
