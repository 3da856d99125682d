import dataclasses
import functools
import itertools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from permrex import construct, regex_ast, verify
from permrex.errors import CapExceeded, InvalidArgs

from conftest import any_regexes, union_terms


def build(name, n):
    builder = {
        "dnc": construct.build_divide_and_conquer,
        "tail": construct.build_tail_recursive,
        "flat": construct.build_flat_union,
    }[name]
    return builder(construct.AlphabetSet.first_n(n))


def test_glushkov_position_count_equals_alphabetic_length():
    for name in ("dnc", "tail", "flat"):
        for n in range(1, 6):
            expr = build(name, n)
            nfa = verify.glushkov(expr)
            assert nfa.n_positions == regex_ast.alphabetic_length(expr)


def test_glushkov_counts_shared_subtrees_per_occurrence():
    shared = regex_ast.Union(regex_ast.Sym(1), regex_ast.Sym(2))
    expr = regex_ast.Concat(shared, shared)
    assert verify.glushkov(expr).n_positions == 4


def walk(expr, n):
    """The production walk at cap n, with the fold's position count."""
    return verify._exhaustive_certificate(expr, n, n, verify._split_proof(expr, n)[1])


def brute_force_counts(expr, n):
    """Brute-force `naive_matches` counts over every word of length <= n on
    1..n: accepted length-n words, accepted permutations, accepted words of
    length 1..n-1, and whether the empty word is accepted."""
    matched = {
        word
        for length in range(0, n + 1)
        for word in itertools.product(range(1, n + 1), repeat=length)
        if verify.naive_matches(expr, word)
    }
    permutations = set(itertools.permutations(range(1, n + 1)))
    return (
        sum(len(word) == n for word in matched),
        len(matched & permutations),
        sum(0 < len(word) < n for word in matched),
        () in matched,
    )


def walk_counts(cert):
    return (cert.accepted, cert.permutations_accepted, cert.short_words_accepted,
            cert.accepts_empty_word)


def test_glushkov_simple_acceptance():
    expr = regex_ast.parse("1(2+3)*", 3)
    assert not verify.glushkov(expr).accepts_epsilon
    # 1xy for x, y in {2, 3}; 123 and 132; 1, 12 and 13.
    assert walk_counts(walk(expr, 3)) == (4, 2, 3, False)


def test_glushkov_epsilon_handling():
    expr = regex_ast.parse("e+1", 1)
    assert verify.glushkov(expr).accepts_epsilon
    assert walk_counts(walk(expr, 1)) == (1, 1, 0, True)
    empty = regex_ast.EmptySet()
    assert not verify.glushkov(empty).accepts_epsilon
    assert walk_counts(walk(empty, 1)) == (0, 0, 0, False)


def test_uniform_length_lattice():
    ul = verify.uniform_length
    assert ul(regex_ast.parse("12+21", 2)) == 2
    assert ul(regex_ast.parse("1+12", 2)) is None
    assert ul(regex_ast.parse("e", 1)) == 0
    assert ul(regex_ast.EmptySet()) is None
    # Union with an empty branch keeps the live branch's length.
    assert ul(regex_ast.parse("12+21&", 2)) == 2
    # A star over the empty set matches only the empty word.
    assert ul(regex_ast.Star(regex_ast.EmptySet())) == 0
    assert ul(regex_ast.parse("(12+21)*", 2)) is None
    # Concatenation with an empty factor is empty, not uniform.
    assert ul(regex_ast.parse("1&", 1)) is None


def test_certificates_pass_for_all_builders():
    for name in ("dnc", "tail", "flat"):
        for n in range(1, 6):
            cert = verify.language_equals_permutations(build(name, n), n)
            assert cert.passed, (name, n, cert.violations)
            assert cert.permutations_accepted == cert.expected_accepted
            assert cert.uniform_length == n
            assert cert.star_free


def test_certificate_counts_missing_permutations():
    expr = regex_ast.parse("123+231", 3)
    cert = verify.language_equals_permutations(expr, 3)
    assert not cert.passed
    assert cert.method == "exhaustive"
    assert cert.permutations_accepted == 2
    assert any("rejected permutation" in v for v in cert.violations)


def test_certificate_flags_repeated_symbols():
    expr = regex_ast.parse("(1+2)(1+2)", 2)
    cert = verify.language_equals_permutations(expr, 2)
    assert not cert.passed
    assert any("non-permutation" in v for v in cert.violations)


def test_certificate_flags_short_words_and_epsilon():
    cert = verify.language_equals_permutations(regex_ast.parse("1+12", 2), 2)
    assert not cert.passed
    assert any("length" in v for v in cert.violations)
    cert = verify.language_equals_permutations(
        regex_ast.parse("e+12+21", 2), 2)
    assert not cert.passed
    assert cert.accepts_empty_word


def test_certificate_flags_foreign_symbols():
    expr = regex_ast.parse("12+13", 3)  # symbol 3 is fine, but n = 2 below
    cert = verify.language_equals_permutations(expr, 2, cap=7)
    assert not cert.passed
    assert any("outside" in v for v in cert.violations)


def test_certificate_flags_starred_expressions():
    expr = regex_ast.Star(regex_ast.parse("12+21", 2))
    cert = verify.language_equals_permutations(expr, 2)
    assert not cert.passed
    assert not cert.star_free


def drop_first_term(expr):
    return functools.reduce(regex_ast.Union, union_terms(expr)[1:])


def test_verify_cap_and_args():
    # dnc n=8 itself is certified structurally; without one term it needs the walk.
    with pytest.raises(CapExceeded):
        verify.language_equals_permutations(drop_first_term(build("dnc", 8)), 8)
    with pytest.raises(InvalidArgs):
        verify.language_equals_permutations(build("dnc", 2), 0)


def test_naive_matcher_ground_truth():
    expr = regex_ast.parse("1(23+32)+e", 3)
    assert verify.naive_matches(expr, ())
    assert verify.naive_matches(expr, (1, 2, 3))
    assert verify.naive_matches(expr, (1, 3, 2))
    assert not verify.naive_matches(expr, (1, 2))
    starred = regex_ast.parse("(12)*", 2)
    assert verify.naive_matches(starred, ())
    assert verify.naive_matches(starred, (1, 2, 1, 2))
    assert not verify.naive_matches(starred, (1, 2, 1))


@settings(max_examples=200, deadline=None)
@given(any_regexes(n=3))
def test_nfa_agrees_with_naive_matcher(expr):
    for n in (1, 2, 3):
        assert walk_counts(walk(expr, n)) == brute_force_counts(expr, n), n


@pytest.mark.parametrize("name", ["dnc", "tail", "flat"])
def test_builders_pass_structurally_up_to_seven(name):
    for n in range(1, 8):
        cert = verify.language_equals_permutations(build(name, n), n)
        assert cert.passed, (name, n, cert.violations)
        # Flat terms are concatenation chains, not splits, from n = 3 on.
        expected = "exhaustive" if name == "flat" and n >= 3 else "structural"
        assert cert.method == expected, (name, n)


@pytest.mark.parametrize("name", ["dnc", "tail"])
def test_structural_certificate_matches_the_walk(name):
    for n in range(1, 7):
        expr = build(name, n)
        structural = verify.language_equals_permutations(expr, n)
        walked = walk(expr, n)
        assert structural.method == "structural"
        assert dataclasses.replace(walked, method="structural") == structural


def test_dropped_or_duplicated_terms_of_dnc_six():
    expr = build("dnc", 6)
    terms = union_terms(expr)
    for i in range(len(terms)):
        dropped = functools.reduce(regex_ast.Union, terms[:i] + terms[i + 1:])
        assert not verify._split_proof(dropped, 6)[0]
        cert = verify.language_equals_permutations(dropped, 6)
        assert not cert.passed and cert.method == "exhaustive"
    doubled = functools.reduce(regex_ast.Union, terms + terms[:1])
    assert verify.language_equals_permutations(doubled, 6).method == "structural"


def test_structure_refuses_foreign_and_differing_supports():
    # Symbol 3 makes the support {1, 2, 3}, not {1, 2}.
    assert not verify._split_proof(regex_ast.parse("12+21+3", 3), 2)[0]
    assert not verify._split_proof(regex_ast.parse("12+21", 2), 3)[0]
    assert not verify._split_proof(regex_ast.parse("12+21+13", 3), 3)[0]
    huge = regex_ast.Sym(10**12)  # no 2^(10^12)-bit mask is built for it
    expr = regex_ast.Union(regex_ast.parse("12", 2), regex_ast.Concat(regex_ast.Sym(2), huge))
    assert verify._split_proof(expr, 2) == (False, 4)
    assert not verify._covers((0b110, (0b110, 0b10), (0b110, 0b10)))
    assert verify._covers((0b110, (0b110, 0b10), (0b110, 0b100)))


MUTATION_KINDS = ["drop", "dup", "swap", "relabel", "star"]


def substitute(expr, target, replacement):
    """`expr` with every occurrence of the node `target` replaced."""
    def rebuild(node, *kids):
        if node is target:
            return replacement
        return type(node)(*kids) if kids else node

    return regex_ast.fold(expr, rebuild)


@st.composite
def mutated_builder_output(draw, max_n=6, kinds=MUTATION_KINDS):
    """Builder output with one change: a union chain, shared wherever it
    occurs, loses, repeats or swaps a term; or one symbol occurrence, at the
    end of a drawn path from the root, is relabelled or starred."""
    name = draw(st.sampled_from(["dnc", "tail", "flat"]))
    n = draw(st.integers(2, max_n))
    expr = build(name, n)
    kind = draw(st.sampled_from(kinds))
    if kind in ("relabel", "star"):
        # Only the path is rebuilt: replacing the Sym node itself would
        # change every occurrence of its symbol in the shared DAG.
        path = []
        leaf = expr
        while type(leaf) is not regex_ast.Sym:
            left = draw(st.booleans())
            path.append((leaf, left))
            leaf = leaf.left if left else leaf.right
        if kind == "star":
            node = regex_ast.Star(leaf)
        else:
            node = regex_ast.Sym(draw(st.integers(1, n).filter(lambda s: s != leaf.sym)))
        for parent, left in reversed(path):
            node = type(parent)(node, parent.right) if left else type(parent)(parent.left, node)
        return node, n, kind
    nodes = list(regex_ast.postorder(expr))
    target = draw(st.sampled_from([x for x in nodes if type(x) is regex_ast.Union]))
    terms = union_terms(target)
    i = draw(st.integers(0, len(terms) - 1))
    j = draw(st.integers(0, len(terms) - 1))
    if kind == "drop":
        del terms[i]
    elif kind == "dup":
        terms.insert(j, terms[i])
    else:
        terms[i], terms[j] = terms[j], terms[i]
    return substitute(expr, target, functools.reduce(regex_ast.Union, terms)), n, kind


@settings(max_examples=300, deadline=None)
@given(mutated_builder_output())
def test_structural_pass_implies_walk_pass_on_mutants(case):
    expr, n, _ = case
    proved, positions = verify._split_proof(expr, n)
    if proved:
        cert = walk(expr, n)
        assert cert.passed and cert.positions == positions


@settings(max_examples=300, deadline=None)
@given(any_regexes(n=3))
def test_structural_pass_implies_walk_pass_on_random_expressions(expr):
    for n in (1, 2, 3):
        proved, positions = verify._split_proof(expr, n)
        if proved:
            cert = walk(expr, n)
            assert cert.passed and cert.positions == positions


@pytest.mark.parametrize("kind", MUTATION_KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_walk_counts_match_brute_force_on_mutants(kind, data):
    expr, n, _ = data.draw(mutated_builder_output(max_n=4, kinds=[kind]))
    cert = walk(expr, n)
    counts = brute_force_counts(expr, n)
    assert walk_counts(cert) == counts
    # Builder terms are all live, so a starred symbol also admits a shorter
    # word: the walk passes exactly when the words up to length n are P_n.
    factorial = math.factorial(n)
    assert cert.passed == (counts == (factorial, factorial, 0, False))


def test_foreign_symbol_on_a_dead_path_is_not_flagged():
    expr = regex_ast.parse("12+21+3&", 3)
    cert = verify.language_equals_permutations(expr, 2)
    assert cert.method == "exhaustive"
    assert cert.passed and not cert.violations
    assert verify.word_symbols(expr) == {1, 2}


def _longest_word(node, *kids):
    # Star-free only: None stands for the empty language.
    kind = type(node)
    if kind is regex_ast.Sym:
        return 1
    if kind is regex_ast.Epsilon:
        return 0
    if kind is regex_ast.EmptySet:
        return None
    left, right = kids
    if kind is regex_ast.Concat:
        return None if left is None or right is None else left + right
    return max((k for k in kids if k is not None), default=None)


@settings(max_examples=200, deadline=None)
@given(any_regexes(n=3, with_star=False))
def test_word_symbols_agree_with_brute_force(expr):
    seen = set()
    nonempty = False
    for length in range(0, 5):
        for word in itertools.product((1, 2, 3), repeat=length):
            if verify.naive_matches(expr, word):
                nonempty = True
                seen.update(word)
    symbols = verify.word_symbols(expr)
    longest = regex_ast.fold(expr, _longest_word)
    if longest is None or longest <= 4:
        assert symbols == (seen if nonempty else None)
    else:
        assert symbols is not None and seen <= symbols
