import hashlib
import itertools
import json
import math
import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from permrex import construct, regex_ast, verify
from permrex.errors import CapExceeded, InvalidArgs

from conftest import any_regexes, normal_form_regexes, union_terms


def build(name, n):
    builder = {
        "dnc": construct.build_divide_and_conquer,
        "tail": construct.build_tail_recursive,
        "flat": construct.build_flat_union,
    }[name]
    return builder(n)


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


def dense_glushkov(expr):
    """The textbook position automaton with absolute position sets:
    (symbols, nullable, first, last, follow), follow[p] a set."""
    symbols, follow = [], []

    def build(node):
        kind = type(node)
        if kind is regex_ast.Sym:
            symbols.append(node.sym)
            follow.append(set())
            return False, {len(follow) - 1}, {len(follow) - 1}
        if kind is regex_ast.Epsilon:
            return True, set(), set()
        if kind is regex_ast.EmptySet:
            return False, set(), set()
        if kind is regex_ast.Star:
            _, first, last = build(node.child)
            for p in last:
                follow[p] |= first
            return True, first, last
        if kind is regex_ast.Concat:
            left_nullable, left_first, left_last = build(node.left)
            right_nullable, right_first, right_last = build(node.right)
            for p in left_last:
                follow[p] |= right_first
            return (left_nullable and right_nullable,
                    left_first | right_first if left_nullable else left_first,
                    right_last | left_last if right_nullable else right_last)
        terms = [build(term) for term in node.terms]
        return (any(term[0] for term in terms),
                set().union(*(term[1] for term in terms)),
                set().union(*(term[2] for term in terms)))

    nullable, first, last = build(expr)
    return symbols, nullable, first, last, follow


def positions_of(mask):
    return {p for p in range(mask.bit_length()) if mask >> p & 1}


# (12)*3: position 1 (the 2) follows back to position 0 and on to 2.
@example(regex_ast.parse("(12)*3", 3))
@settings(max_examples=300, deadline=None)
@given(normal_form_regexes(n=3))
def test_glushkov_windows_decode_to_the_dense_construction(expr):
    nfa = verify.glushkov(expr)
    symbols, nullable, first, last, follow = dense_glushkov(expr)
    assert list(nfa.symbols) == symbols
    assert nfa.accepts_epsilon is nullable
    assert positions_of(nfa.first) == first
    assert positions_of(nfa.last) == last
    assert len(nfa.follow) == len(nfa.follow_shift) == len(symbols)
    for p, (window, shift) in enumerate(zip(nfa.follow, nfa.follow_shift)):
        # A window starts at its lowest member.
        assert window == 0 or window & 1
        assert positions_of(window << shift) == follow[p]


def test_glushkov_flat_seven_holds_no_quadratic_table():
    expr = build("flat", 7)
    tracemalloc.start()
    try:
        nfa = verify.glushkov(expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A table of absolute follow masks takes about 67 MB here.
    assert peak < 8 * 2**20, peak
    assert nfa.n_positions == 7 * math.factorial(7)


def test_flat_seven_without_its_first_term_misses_one_permutation():
    cert = verify.language_equals_permutations(drop_first_term(build("flat", 7)), 7)
    assert cert.method == "exhaustive"
    assert (cert.accepted, cert.passed) == (math.factorial(7) - 1, False)
    assert cert.violations == ("rejected permutations with prefix 123456",)


def walk(expr, n):
    """The production walk at cap n, with what the split fold read."""
    return verify._certificate(expr, n, n, False, *verify._split_proof(expr, n)[1:])


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


def test_a_foreign_witness_alone_fails_the_certificate():
    # Every count is the one a proof implies: 33 is as long as 12 and 21,
    # and the length-2 walk never steps on symbol 3.
    cert = verify.language_equals_permutations(regex_ast.parse("12+21+33", 3), 2)
    assert (cert.accepted, cert.permutations_accepted, cert.short_words_accepted,
            cert.accepts_empty_word, cert.uniform_length) == (2, 2, 0, False, 2)
    assert cert.violations == ("a reachable, accepting path reads symbol 3 outside 1..2",)
    assert not cert.passed


def test_certificate_flags_starred_expressions():
    expr = regex_ast.Star(regex_ast.parse("12+21", 2))
    cert = verify.language_equals_permutations(expr, 2)
    assert not cert.passed
    assert not cert.star_free


def drop_first_term(expr):
    return regex_ast.Union(*union_terms(expr)[1:])


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
        assert walked._replace(method="structural") == structural


def test_dropped_or_duplicated_terms_of_dnc_six():
    expr = build("dnc", 6)
    terms = union_terms(expr)
    for i in range(len(terms)):
        dropped = regex_ast.Union(*terms[:i], *terms[i + 1:])
        assert not verify._split_proof(dropped, 6)[0]
        cert = verify.language_equals_permutations(dropped, 6)
        assert not cert.passed and cert.method == "exhaustive"
    doubled = regex_ast.Union(*terms, terms[0])
    assert verify.language_equals_permutations(doubled, 6).method == "structural"


def test_structure_refuses_foreign_and_differing_supports():
    # Symbol 3 makes the support {1, 2, 3}, not {1, 2}.
    assert not verify._split_proof(regex_ast.parse("12+21+3", 3), 2)[0]
    assert not verify._split_proof(regex_ast.parse("12+21", 2), 3)[0]
    assert not verify._split_proof(regex_ast.parse("12+21+13", 3), 3)[0]
    huge = regex_ast.Sym(10**12)  # no 2^(10^12)-bit mask is built for it
    expr = regex_ast.Union(regex_ast.parse("12", 2), regex_ast.Concat(regex_ast.Sym(2), huge))
    assert verify._split_proof(expr, 2) == (False, 4, True, {10**12})
    assert not verify._covers(0b110, frozenset({0b10}))
    assert verify._covers(0b110, frozenset({0b10, 0b100}))


MUTATION_KINDS = ["drop", "dup", "swap", "relabel", "star"]


def substitute(expr, target, replacement):
    """`expr` with every occurrence of the node `target` replaced."""
    def rebuild(node, *kids):
        if node is target:
            return replacement
        return type(node)(*kids) if kids else node

    return regex_ast.fold(expr, rebuild)


def chain_links(expr):
    """The union nodes of `expr` as binary left chains ((t1 + t2) + t3) + ...
    would have them, in the order a post-order walk meets them: (union, m)
    stands for the link over the first m terms, m >= 2."""
    links, seen = [], set()

    def visit(node):
        if node in seen:
            return
        seen.add(node)
        if type(node) is regex_ast.Union:
            for m, term in enumerate(node.terms, 1):
                visit(term)
                if m >= 2:
                    links.append((node, m))
        else:
            for child in regex_ast._children(node):
                visit(child)

    visit(expr)
    return links


def chain_step(node, pick):
    """The index of the child of `node` that left/right picks lead to: one
    pick for a concatenation, one per link walked down a union's left chain."""
    if type(node) is not regex_ast.Union:
        return 0 if pick((True, False)) else 1
    m = len(node.terms)
    while m > 1 and pick((True, False)):
        m -= 1
    return m - 1


def mutate(expr, n, kind, pick):
    """`expr` with one change: a union chain, shared wherever it occurs,
    loses, repeats or swaps a term; or one symbol occurrence, at the end of
    a picked path from the root, is relabelled or starred.  `pick(options)`
    chooses one element of a nonempty sequence.

    Unions are read as the left chains of binary links they render as, so
    that one sequence of picks always names the same mutant (the golden
    digests below pin seeded ones)."""
    if kind in ("relabel", "star"):
        # Only the path is rebuilt: replacing the Sym node itself would
        # change every occurrence of its symbol in the shared DAG.
        path = []
        leaf = expr
        while type(leaf) is not regex_ast.Sym:
            index = chain_step(leaf, pick)
            path.append((leaf, index))
            leaf = regex_ast._children(leaf)[index]
        if kind == "star":
            node = regex_ast.Star(leaf)
        else:
            node = regex_ast.Sym(pick([s for s in range(1, n + 1) if s != leaf.sym]))
        for parent, index in reversed(path):
            kids = list(regex_ast._children(parent))
            kids[index] = node
            node = type(parent)(*kids)
        return node
    target, m = pick(chain_links(expr))
    terms = list(target.terms[:m])
    i = pick(range(len(terms)))
    j = pick(range(len(terms)))
    if kind == "drop":
        del terms[i]
    elif kind == "dup":
        terms.insert(j, terms[i])
    else:
        terms[i], terms[j] = terms[j], terms[i]
    terms += target.terms[m:]
    return substitute(expr, target, regex_ast.union_of(terms))


@st.composite
def mutated_builder_output(draw, max_n=6, kinds=MUTATION_KINDS):
    """Builder output with one `mutate` change, every choice drawn."""
    name = draw(st.sampled_from(["dnc", "tail", "flat"]))
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(kinds))

    def pick(options):
        return draw(st.sampled_from(options))

    return mutate(build(name, n), n, kind, pick), n, kind


@settings(max_examples=300, deadline=None)
@given(mutated_builder_output())
def test_structural_pass_implies_walk_pass_on_mutants(case):
    expr, n, _ = case
    proved, positions = verify._split_proof(expr, n)[:2]
    if proved:
        cert = walk(expr, n)
        assert cert.passed and cert.positions == positions


@settings(max_examples=300, deadline=None)
@given(any_regexes(n=3))
def test_structural_pass_implies_walk_pass_on_random_expressions(expr):
    for n in (1, 2, 3):
        proved, positions = verify._split_proof(expr, n)[:2]
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
    assert cert.positions == verify.glushkov(expr).n_positions == regex_ast.alphabetic_length(expr)
    # Builder terms are all live, so a starred symbol also admits a shorter
    # word: the walk passes exactly when the words up to length n are P_n.
    factorial = math.factorial(n)
    assert cert.passed == (counts == (factorial, factorial, 0, False))


def test_foreign_symbol_on_a_dead_path_is_not_flagged():
    expr = regex_ast.parse("12+21+3&", 3)
    cert = verify.language_equals_permutations(expr, 2)
    assert cert.method == "exhaustive"
    assert cert.passed and not cert.violations
    assert live_symbols(expr, 2) == set()
    assert live_symbols(expr, 0) == {1, 2}


def live_symbols(expr, n):
    """The split fold's live symbols outside 1..n: all of them at n = 0."""
    return verify._split_proof(expr, n)[3]


def _longest_word(node, *kids):
    # Star-free only: None stands for the empty language.
    kind = type(node)
    if kind is regex_ast.Sym:
        return 1
    if kind is regex_ast.Epsilon:
        return 0
    if kind is regex_ast.EmptySet:
        return None
    if kind is regex_ast.Concat:
        left, right = kids
        return None if left is None or right is None else left + right
    return max((k for k in kids if k is not None), default=None)


def brute_force_symbols(expr):
    """Whether some word of length <= 4 over 1..3 matches, and the symbols
    of the matching words."""
    seen = set()
    nonempty = False
    for length in range(0, 5):
        for word in itertools.product((1, 2, 3), repeat=length):
            if verify.naive_matches(expr, word):
                nonempty = True
                seen.update(word)
    return nonempty, seen


@settings(max_examples=200, deadline=None)
@given(any_regexes(n=3, with_star=False))
def test_split_fold_live_symbols_agree_with_brute_force(expr):
    nonempty, seen = brute_force_symbols(expr)
    longest = regex_ast.fold(expr, _longest_word)
    for n in (0, 1, 2):
        symbols = live_symbols(expr, n)
        foreign = {s for s in seen if s > n}
        if longest is None or longest <= 4:
            assert symbols == (foreign if nonempty else None)
        else:
            assert symbols is not None and foreign <= symbols


@settings(max_examples=200, deadline=None)
@given(any_regexes(n=3))
def test_split_fold_reads_stars_and_bounds_live_symbols(expr):
    # With stars the words up to length 4 only bound the live symbols below.
    nonempty, seen = brute_force_symbols(expr)
    starred = any(type(node) is regex_ast.Star for node in regex_ast.postorder(expr))
    for n in (0, 1, 2):
        _, _, star_free, symbols = verify._split_proof(expr, n)
        assert star_free is not starred
        assert (symbols is not None) >= nonempty
        if nonempty:
            assert {s for s in seen if s > n} <= symbols


def test_exhaustive_certificate_reads_the_dag_twice(monkeypatch):
    # The split fold and uniform_length; a structural proof is the fold alone.
    walks = []
    postorder = regex_ast.postorder

    def counted(expr):
        walks.append(expr)
        return postorder(expr)

    for module in (regex_ast, verify):
        monkeypatch.setattr(module, "postorder", counted, raising=False)
    for expr, n, method, count in [
        (build("flat", 4), 4, "exhaustive", 2),
        (regex_ast.parse("12+21+3&", 3), 2, "exhaustive", 2),
        (build("dnc", 6), 6, "structural", 1),
    ]:
        walks.clear()
        assert verify.language_equals_permutations(expr, n).method == method
        assert len(walks) == count, method


def golden_case(case):
    """The (expression, n) a golden-certificate case id names: a builder at
    n, a seeded `mutate` of a seeded builder at n, or an odd input."""
    odd = {
        "empty-set": (regex_ast.EmptySet(), 2),
        "epsilon": (regex_ast.Epsilon(), 2),
        "star-of-empty-set": (regex_ast.Star(regex_ast.EmptySet()), 2),
        "epsilon-in-union": (regex_ast.parse("e+12+21", 2), 2),
        "foreign-live": (regex_ast.parse("12+21+3", 3), 2),
        "foreign-dead": (regex_ast.parse("12+21+3&", 3), 2),
        "short-word": (regex_ast.parse("1+12", 2), 2),
        "starred-permutations": (regex_ast.parse("(12+21)*", 2), 2),
    }
    if case in odd:
        return odd[case]
    kind, n, *seed = case.split("-")
    n = int(n)
    if not seed:
        return build(kind, n), n
    pick = random.Random(case).choice
    return mutate(build(pick(["dnc", "tail", "flat"]), n), n, kind, pick), n


# sha256 of each certificate's JSON, as `certificate_digest` writes it.
GOLDEN_DIGESTS = {
    "dnc-1": "e1aaf009a988c8addd0285e0dd06c99e60ce37ce568a662bd6c0234e0333cf9f",
    "dnc-2": "3dfbc1821c95fe7123c190705a7d7a818eefb42da179b13e65b82f3c84a59b67",
    "dnc-3": "92fb0356fa62051ecd6a9716b866b780c5157e534632b32e93ff6b150f28e229",
    "dnc-4": "1b68960f37e4301ef78334f10648957c957605ab49ec1783b97d2e32daff4c08",
    "dnc-5": "bc24122b01b27262b18e695cb3984da5b8aaecc59028efbeafeb86d0677f0d00",
    "dnc-6": "b00b6cba079a03f512265e491636eb45ea93f461f616ba457535ad47dd41d7a3",
    "dnc-7": "3984b7233676ad236f60d57df5e16a101d4bd961ef63f153609cbdce2077fada",
    "drop-4-1": "859e8115c5290da4fc7e0c6a74d30e3607adc58196ebe1d1ebed344b2257b2b4",
    "drop-4-2": "ed5c29db18169f2eff028d0be3d421ac97bc66b1c0a38a145692b79ec785637e",
    "drop-5-1": "65b3dba4dcd28b0844f64a8fcb55ff566444dc2f3c5fb4b7379776d1d85178da",
    "drop-5-2": "484e6df24c5da77fddaad863af016bd6bfe7cc50b9b21ea753316ab7177197f5",
    "drop-6-1": "103dd028efa14bc77dd96d74caa26954b3ee925d47dcad2c11798ea2c13c6aa7",
    "drop-6-2": "6b322fbb8387b46f3801ad5602047c00a707c7c8f5f70d799e3bdd11b1caa0aa",
    "dup-4-1": "e1430be86f13a7fc3895d4314945715c2d3c8b0683158a5af2181a5854ca585e",
    "dup-4-2": "a77cea7bf5f066286e377a3e14d222892c7130d6eea713ddaaa63a2138901d5f",
    "dup-5-1": "e6b1d758d8699b6c9f6b42d92decaa7ea375e5255b2892cce2d20a8d943e294c",
    "dup-5-2": "4b9bb66204da40505fd505b27fe12ae8bea786c6c67c166f436e3c8dd848758f",
    "dup-6-1": "3d54b37a47d96ec60643825b822399cacb60c7fe26462cf99224b28d0913a4af",
    "dup-6-2": "f06bdd0818fe14a860058745da216665931f1fca6b8e58ce1118fa5997883a3e",
    "empty-set": "c0d7b2589e1dbf96e6524066fe63e0b956b806f6cf3bee0c739d525e1fb8c913",
    "epsilon": "2bbaedac85c367cf07ca530a3c1c0fa5d29a81e925b0b1d52891cb2941f818ef",
    "epsilon-in-union": "56450d6457cfb0a5d0d8ddc62e016549a39060202e5ae1244831039a56a818df",
    "flat-1": "e1aaf009a988c8addd0285e0dd06c99e60ce37ce568a662bd6c0234e0333cf9f",
    "flat-2": "3dfbc1821c95fe7123c190705a7d7a818eefb42da179b13e65b82f3c84a59b67",
    "flat-3": "c46957fb205193398dd6e73f89be2629425cd999b48dee4f6d047ea1e202c742",
    "flat-4": "1763127c9ca2e6742abfb301492896069d9c86c0a691659bb846152f6133646f",
    "flat-5": "10e7ac5df71a2b5a52dcef161f0671d43af7a2fa83e0bcf7e811490547696eb6",
    "flat-6": "e727a79eb64ab2628e35df2f8ce00da91530ff45af32061d2a484008181a9611",
    "flat-7": "96e2b0f64dd26b527e7f534b404f7216e80016d99d337311b806b1bca85dc9e3",
    "foreign-dead": "b1a5565686ddd5cb0677c124d6a2f2ad8862296600cffc5fbefa6148c1d8cc9c",
    "foreign-live": "0bb53fd6530d3b53a3889167c6203fce3cf80c39f97832a1e2484b47068d6bfd",
    "relabel-4-1": "239de871176cb97a56d72c471631d10eeaeebdc6dc4291b90189bd3ca7f7327f",
    "relabel-4-2": "63fbad93b59cc269f82684822b8d4075d192690b2b8987d94f19ccbef3cd6577",
    "relabel-5-1": "3e393af1117868584d535d1bc401aea50960e3521de0a900369843808d33917c",
    "relabel-5-2": "741f61b9a5ea31d21e2b31e92df1e443dcdf52760149f5126eb449dc1bd5a047",
    "relabel-6-1": "e87c37791e643b43c26ecb25ad96be6b23fba613f207c6609c49f9c662538f6a",
    "relabel-6-2": "2397cdafa5f550d75e0db21c13b466588e260d820ea5aaba091a8abf6072b145",
    "short-word": "e0333f8e1daf5337518ee69290bd8bf17b09cfe4cb5157c6721d3f35ab8d79a4",
    "star-4-1": "3bd4f167d306395324bb66640ba5d4a6ecf43684eb4366b797ce0896ce04b699",
    "star-4-2": "fc5652bbe1b287aa256e576f8ecc3c523216359ef39ae71ee584e21b013b5aee",
    "star-5-1": "7516827cc7bf0ef084bc0278330431d35dedf93e386d52226f1a74d99c04b282",
    "star-5-2": "6d52d99c96db03d30381492266ca64c1658f95b2e49eaafe70ba2b95bd8ac328",
    "star-6-1": "7cb47d201a35c8817b48b15a7848a16677cdc335b9dfa832a5f0a867e26e4c22",
    "star-6-2": "14ed524e272057042489fe35920961cf27975f1ba9ee71dcb796721f4d951ab9",
    "star-of-empty-set": "0fc25dbbad2e0d24261caf8d737f113b8c6895a2342abe6aed03bf82f1fae2ca",
    "starred-permutations": "d0f9fba3fe2594716739e91679dc19dd5f8ce69f74aa759d3b8119f25d5a8821",
    "swap-4-1": "33a925cf660883e471a5e5f3986828cd246e146014d15da7ce271d7dc87138af",
    "swap-4-2": "1763127c9ca2e6742abfb301492896069d9c86c0a691659bb846152f6133646f",
    "swap-5-1": "bc24122b01b27262b18e695cb3984da5b8aaecc59028efbeafeb86d0677f0d00",
    "swap-5-2": "e0e0545d2ffe61e28b826262112a704f84029729524806d804851786fec4dc0e",
    "swap-6-1": "50a03f0faaac80b31cb0320dfe0eafa45235a538f73929ce261cef9d84e14d19",
    "swap-6-2": "b00b6cba079a03f512265e491636eb45ea93f461f616ba457535ad47dd41d7a3",
    "tail-1": "e1aaf009a988c8addd0285e0dd06c99e60ce37ce568a662bd6c0234e0333cf9f",
    "tail-2": "3dfbc1821c95fe7123c190705a7d7a818eefb42da179b13e65b82f3c84a59b67",
    "tail-3": "92fb0356fa62051ecd6a9716b866b780c5157e534632b32e93ff6b150f28e229",
    "tail-4": "33a925cf660883e471a5e5f3986828cd246e146014d15da7ce271d7dc87138af",
    "tail-5": "e0e0545d2ffe61e28b826262112a704f84029729524806d804851786fec4dc0e",
    "tail-6": "50a03f0faaac80b31cb0320dfe0eafa45235a538f73929ce261cef9d84e14d19",
    "tail-7": "af88148c4c912c51e8aaedf4ecf9ba4e5ba7c9732de49038c556643a66b0077d",
}


def certificate_digest(cert):
    text = json.dumps(cert._asdict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_certificates_match_golden_digests(case):
    # Pins every field, witness text and order included, of builder output
    # and of wrong or odd inputs, whichever path certifies them.
    expr, n = golden_case(case)
    cert = verify.language_equals_permutations(expr, n)
    assert certificate_digest(cert) == GOLDEN_DIGESTS[case]
