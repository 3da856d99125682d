import copy
import functools
import pickle
import random
import time
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from permrex import construct, errors
from permrex import regex_ast as ra
from permrex.errors import CompactOverflow, RegexSyntaxError, SizeCap, SymbolOutOfRange

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


def bracketed_unions(draw, terms):
    """A union of `terms` in the order given, under a drawn bracketing."""
    if len(terms) == 1:
        return terms[0]
    k = draw(st.integers(1, len(terms) - 1))
    return ra.Union(bracketed_unions(draw, terms[:k]), bracketed_unions(draw, terms[k:]))


@settings(max_examples=200)
@given(st.lists(any_regexes(n=3), min_size=2, max_size=8), st.data())
def test_every_bracketing_of_a_union_is_one_flat_node(terms, data):
    union = ra.Union(*terms)
    assert functools.reduce(ra.Union, terms) is union
    assert bracketed_unions(data.draw, terms) is union
    assert ra.Union in map(type, terms) or union.terms == tuple(terms)
    assert ra.Union not in map(type, union.terms)
    # A union term is never parenthesized, so the text is that of the left
    # chain of binary unions: the terms' texts joined by " + ".
    for fmt, plus in (("spaced", " + "), ("compact", "+")):
        assert ra.render(union, fmt) == plus.join(ra.render(t, fmt) for t in terms)


def test_union_needs_two_terms_and_keeps_repeats():
    with pytest.raises(TypeError):
        ra.Union(sym(1))
    with pytest.raises(TypeError):
        ra.Union()
    assert ra.Union(sym(1), sym(1)).terms == (sym(1), sym(1))
    assert ra.Union(ra.Union(sym(1), sym(2)), sym(1)).terms == (sym(1), sym(2), sym(1))


def test_copies_of_a_three_term_union_are_the_node():
    union = ra.Union(sym(1), ra.Concat(sym(2), sym(3)), ra.Star(sym(3)))
    assert copy.copy(union) is union
    assert copy.deepcopy(union) is union
    assert pickle.loads(pickle.dumps(union)) is union
    assert pickle.loads(pickle.dumps([union, union.terms])) == [union, union.terms]


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
    with pytest.raises(CompactOverflow) as info:
        ra.render(ra.Sym(10), "compact")
    assert info.value.sym == 10
    assert str(info.value) == "symbol 10 has no single-digit form; use the spaced format"
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)


# One instance of every PermrexError subclass, with the attributes it keeps.
_ERRORS = [
    (errors.InvalidArgs("bad"), {}),
    (SymbolOutOfRange("symbol 5 out of range"), {}),
    (RegexSyntaxError("unclosed '('", 7), {"offset": 7}),
    (CompactOverflow(12), {"sym": 12}),
    (SizeCap(20, 13, what="alphabet symbols"), {"predicted": 20, "cap": 13}),
    (SizeCap(11, 10), {"predicted": 11, "cap": 10}),
    (errors.CapExceeded("n = 8 is too large"), {}),
    (errors.DomainError("log needs x > 0"), {}),
]


def test_error_instances_cover_every_subclass():
    assert {type(e) for e, _ in _ERRORS} == set(errors.PermrexError.__subclasses__())


@pytest.mark.parametrize("error, attributes", _ERRORS,
                         ids=[type(e).__name__ for e, _ in _ERRORS])
def test_errors_survive_pickling(error, attributes):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    for name, value in attributes.items():
        assert getattr(back, name) == getattr(error, name) == value


def test_render_spaced_handles_wide_symbols():
    expr = ra.Concat(ra.Sym(10), ra.Sym(11))
    assert ra.render(expr, "spaced") == "10 11"


# Union binds loosest, then concatenation, then star; a leaf binds tightest.
_BINDING = {ra.Union: 1, ra.Concat: 2, ra.Star: 3}


def reference_tokens(expr):
    """The tokens of `expr`, straight from the precedence rules: a child is
    parenthesized exactly when it binds looser than its parent."""
    kind = type(expr)
    if kind is ra.Sym:
        return [str(expr.sym)]
    if kind is ra.Epsilon:
        return ["e"]
    if kind is ra.EmptySet:
        return ["&"]

    def operand(child):
        tokens = reference_tokens(child)
        return ["(", *tokens, ")"] if _BINDING.get(type(child), 4) < _BINDING[kind] else tokens

    if kind is ra.Star:
        return operand(expr.child) + ["*"]
    if kind is ra.Concat:
        return operand(expr.left) + operand(expr.right)
    tokens = operand(expr.terms[0])
    for term in expr.terms[1:]:
        tokens += ["+", *operand(term)]
    return tokens


@settings(max_examples=300)
@given(any_regexes(n=10), any_regexes(n=10), any_regexes(n=10))
def test_render_matches_the_precedence_rules_on_shared_groups(e, a, b):
    # Each group occurs several times, in and out of parentheses.
    u = ra.Union(a, b)
    c = ra.Concat(a, b)
    shapes = [e, ra.Union(ra.Concat(e, ra.Star(e)), e), ra.Concat(ra.Star(u), u),
              ra.Union(ra.Concat(ra.Star(c), ra.Concat(u, ra.Star(ra.Concat(u, c)))), c, u),
              ra.Concat(ra.Concat(u, u), ra.Star(ra.Concat(ra.Star(u), e)))]
    for expr in shapes:
        tokens = reference_tokens(expr)
        assert ra.render(expr, "spaced") == " ".join(tokens)
        calls = []
        if any(len(token) > 1 for token in tokens):  # a symbol of two digits
            with pytest.raises(CompactOverflow):
                ra.render_to(expr, calls.append, "compact")
            assert calls == []
        else:
            ra.render_to(expr, calls.append, "compact")
            assert calls == ["".join(tokens)]


def test_render_of_the_largest_flat_union_keeps_no_table_of_its_nodes():
    # 109 601 distinct nodes, no group among them.  A parent count per
    # node, with a str per symbol occurrence, took 11 MB for the spaced text.
    expr = construct.build_flat_union(8)
    calls = []
    tracemalloc.start()
    try:
        ra.render_to(expr, calls.append)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 1 and len(calls[0]) == 725_757
    assert peak < 5e6


@pytest.mark.parametrize("twice", [False, True], ids=["once", "twice"])
def test_render_of_a_deep_group_nest_is_linear(twice):
    # Each level is a distinct union under a concatenation: ((3 1 + 2) 1 + 2) ...
    # Keeping each group's text from its first occurrence, or keeping the
    # nested groups' texts while the outer group's is built (their second
    # occurrence when the nest occurs twice), would hold about depth / 2
    # times the text.  The token slots, the stack and the set of groups
    # take about 17 times the spaced text here.  The shallow nest goes
    # first, so such a renderer fails on it before it can fill the memory.
    for depth in (2_000, 20_000):
        nest = ra.Sym(3)
        for _ in range(depth):
            nest = ra.Union(ra.Concat(nest, sym(1)), sym(2))
        expr = ra.Concat(nest, nest) if twice else nest
        calls = []
        tracemalloc.start()
        try:
            ra.render_to(expr, calls.append)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = calls[0]
        assert text.count("(") == (2 * depth if twice else depth - 1)
        assert peak < 20 * len(text)


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


def test_parse_builds_nested_union_groups_as_one_flat_node():
    pair = ra.Union(sym(1), sym(2))
    triple = ra.Union(sym(1), sym(2), sym(3))
    assert ra.parse("((1+2)+3)", 3) is triple
    assert ra.parse("(1+(2+3))", 3) is triple
    assert ra.parse("((1+2)+3)(1+(2+3))", 3) is ra.Concat(triple, triple)
    assert ra.parse("(((1+2)))*+((1+2))3", 3) is ra.Union(
        ra.Star(pair), ra.Concat(pair, sym(3)))
    # The second and third copies of the group come from the memo: one is
    # built by the concatenation, the first stays a whole alternative.
    assert ra.parse("(1+2)+(1+2)(1+2)", 2) is ra.Union(
        sym(1), sym(2), ra.Concat(pair, pair))


def test_parse_builds_a_reused_nested_union_group_once_per_use():
    # A group of 66 characters with a union among its alternatives: the
    # parser keeps it as a list until the concatenation with 1 builds it,
    # and the list then holds the built union alone.  The second copy is
    # that list, from the memo.
    group = "( ( " + " + ".join(map(str, range(1, 13))) + " ) + 13 + 14 )"
    assert len(group) > 48
    union = ra.Union(*map(sym, range(1, 15)))
    assert ra.parse(f"{group} 1 + {group} 2", 14) is ra.Union(
        ra.Concat(union, sym(1)), ra.Concat(union, sym(2)))


@pytest.mark.parametrize("nest, symbol", [
    (lambda depth: "(" * depth + "1" + "+1)" * depth, 1),
    (lambda depth: "(2+" * depth + "2" + ")" * depth, 2),
], ids=["left", "right"])
def test_parse_of_a_deep_union_nest_is_linear(nest, symbol):
    # One flat union of depth + 1 terms.  Building and interning a union
    # per level would copy the inner terms at each level: about 2e8 term
    # slots at depth 20 000.  The shallow nest goes first, so such a parser
    # fails on it before it can fill the memory; the two nests use their
    # own symbol, so neither finds the other's unions already interned.
    for depth, megabytes in ((2_000, 1), (20_000, 10)):
        text = nest(depth)
        tracemalloc.start()
        try:
            expr = ra.parse(text, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert expr is ra.Union(*[sym(symbol)] * (depth + 1))
        assert peak < megabytes * 1e6
        start = time.perf_counter()
        ra.parse(text, 2)
        assert time.perf_counter() - start < 2


def test_parse_refuses_past_its_node_cap(monkeypatch):
    cap = 3_000
    monkeypatch.setattr(ra, "MAX_PARSE_NODES", cap)
    rng = random.Random(23)
    digits = [sym(s) for s in range(1, 10)]  # interned: the run adds no Sym
    # Random groups, one per alternative: no run is long, but together
    # they would add about 4 800 nodes.
    groups = " + ".join("( " + " ".join(str(rng.randint(1, 9)) for _ in range(rng.randint(2, 8)))
                        + " )" for _ in range(2_000))
    with pytest.raises(SizeCap) as info:
        ra.parse(groups, 9)
    assert info.value.cap == cap
    # A run of cap + 2 symbols would take cap + 1 concatenations.  It is
    # refused before any of them exists: they and their intern keys would
    # take about 300 KB.
    run = [rng.choice(digits) for _ in range(cap + 2)]
    text = " ".join(str(node.sym) for node in run)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCap) as info:
            ra.parse(text, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.predicted == cap + 1 and peak < 100_000
    # One symbol fewer is cap concatenations, which the cap allows.
    assert ra.parse(text[:-2], 9) is functools.reduce(ra.Concat, run[:-1])


def test_a_parse_that_raises_leaves_no_nodes(monkeypatch):
    monkeypatch.setattr(ra, "MAX_PARSE_NODES", 3_000)
    rng = random.Random(24)
    groups = ["( " + " ".join(str(rng.randint(1, 9)) for _ in range(rng.randint(2, 8))) + " )"
              for _ in range(2_000)]
    prefix = " + ".join(groups[:200])
    for text, error in [(" + ".join(groups), SizeCap), (prefix + " )", RegexSyntaxError),
                        (prefix + " 0", SymbolOutOfRange)]:
        before = len(ra._INTERNED)
        with pytest.raises(error):
            ra.parse(text, 9)
        assert len(ra._INTERNED) == before
    # Each failed parse built the prefix's groups and took them out again.
    before = len(ra._INTERNED)
    ra.parse(prefix, 9)
    assert len(ra._INTERNED) > before
    expr = construct.build_divide_and_conquer(6)
    assert ra.parse(ra.render(expr, "spaced"), 6) is expr
