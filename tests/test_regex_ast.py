import copy
import functools
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


# A group of 65 characters at n = 12, longer than the 48 the parser's group
# memo keys on.  Every text below repeats it, so the second copy is looked
# up in the memo; the expected errors are those of the memo-less parser.
GROUP = "( 1 2 3 4 5 6 7 8 9 10 11 12 1 2 3 4 5 6 7 8 9 10 11 12 + 12 11 )"


def test_parse_reuses_a_repeated_group_as_one_node():
    node = ra.parse(GROUP, 12)
    assert ra.parse(f"{GROUP} {GROUP}", 12) is ra.Concat(node, node)
    assert ra.parse(f"{GROUP} + {GROUP}", 12) is ra.Union(node, node)
    assert ra.parse(f"( {GROUP} ) {GROUP}", 12) is ra.Concat(node, node)
    assert ra.parse(f"{GROUP} {GROUP} *", 12) is ra.Concat(node, ra.Star(node))
    assert ra.parse(f"{GROUP}* {GROUP}**", 12) is ra.Concat(
        ra.Star(node), ra.Star(ra.Star(node)))


def test_parse_of_a_second_copy_that_diverges_after_the_memo_key():
    node = ra.parse(GROUP, 12)
    longer = GROUP[:-1] + "+ 1 )"       # equal up to the first copy's ')'
    shorter = GROUP.replace(" 11 )", " )")
    for other in (longer, shorter):
        assert len(GROUP) > 48 and other[:48] == GROUP[:48]
        assert ra.parse(f"{GROUP} {other}", 12) is ra.Concat(node, ra.parse(other, 12))


@pytest.mark.parametrize("text, exc, message, offset", [
    (f"{GROUP} {GROUP[:-1]}", RegexSyntaxError, "unclosed '('", 130),
    (f"{GROUP} {GROUP} )", RegexSyntaxError, "unbalanced ')'", 132),
    (f"{GROUP} {GROUP} ?", RegexSyntaxError, "unexpected character '?'", 132),
    (f"{GROUP} {GROUP[:-1]}? )", RegexSyntaxError, "unexpected character '?'", 130),
    (f"{GROUP} {GROUP.replace('+', '+ +', 1)}", RegexSyntaxError,
     "empty union alternative", 124),
    (f"{GROUP} {GROUP.replace('3 4', '3 14', 1)}", SymbolOutOfRange,
     "symbol 14 outside [1, 12] at offset 74", None),
    (f"{GROUP} {GROUP[:-2]}13 )", SymbolOutOfRange,
     "symbol 1113 outside [1, 12] at offset 127", None),
], ids=["unclosed", "unbalanced", "after-copy", "inside-copy", "empty-alternative",
        "symbol-before-key-end", "symbol-after-key-end"])
def test_parse_errors_in_a_second_copy_are_those_of_the_plain_parser(
        text, exc, message, offset):
    with pytest.raises(exc) as info:
        ra.parse(text, 12)
    if offset is None:
        assert str(info.value) == message
    else:
        assert str(info.value) == f"{message} (at offset {offset})"
        assert info.value.offset == offset


def test_parse_gives_one_node_for_whitespace_variants_of_a_group():
    expr = ra.parse("(1 2) ( 1  2 ) (\t1\n2\r\n)", 2)
    pair = ra.Concat(sym(1), sym(2))
    assert expr is ra.Concat(ra.Concat(pair, pair), pair)
    spread = GROUP.replace(" ", "  ")
    assert ra.parse(f"{GROUP} {spread} {GROUP}", 12) is ra.parse(f"{GROUP} {GROUP} {GROUP}", 12)


def test_parse_memo_keeps_multi_digit_ids_apart():
    # At n >= 10 a digit run is one id, so "1 11", "11 1" and "1 1 1" differ.
    texts = ["( 1 11 )", "( 11 1 )", "( 1 1 1 )", "( 1 11 )", "( 111 )"]
    with pytest.raises(SymbolOutOfRange, match="symbol 111 outside .* at offset 39"):
        ra.parse(" ".join(texts), 12)
    expected = [ra.parse(t, 12) for t in texts[:4]]
    assert ra.parse(" ".join(texts[:4]), 12) is functools.reduce(ra.Concat, expected)
    wide = " ".join(f"( {i} {i + 10} )" for i in range(1, 91))
    assert ra.parse(f"{wide} + {wide}", 100) is ra.Union(ra.parse(wide, 100), ra.parse(wide, 100))


def test_parse_memo_stays_exact_past_its_caps():
    # Twenty groups that share their first 48 characters, each twice: more
    # than one memo key holds.
    groups = [f"( {'1 ' * 30}{i} )" for i in range(1, 21)]
    expr = ra.parse(" + ".join(g for g in groups for _ in "ab"), 20)
    assert expr is functools.reduce(ra.Union, [ra.parse(g, 20) for g in groups for _ in "ab"])
    # Nests twice, whose copies differ only at the core.  Below depth 48
    # every group of the first shares one key; every group of the second
    # has a key of its own, and their texts outgrow the memo's room.
    depth = 20_000
    nests = ["(" * depth + core + ")" * depth for core in "12"]
    assert ra.parse("".join(nests), 2) is ra.Concat(sym(1), sym(2))
    depth = 2_000
    nests = ["".join(f"( {i} " for i in range(1, depth + 1)) + core + " )" * depth
             for core in ("1", "2")]
    expected = []
    for core in (1, 2):
        node = sym(core)
        for i in range(depth, 0, -1):
            node = ra.Concat(sym(i), node)
        expected.append(node)
    assert ra.parse(" ".join(nests), depth) is ra.Concat(*expected)
