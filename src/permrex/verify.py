"""Certification that an expression denotes exactly P_n.

language_equals_permutations tries a proof first and falls back to an
exhaustive walk, and both fill the one certificate.  A proof implies its
counts: n! accepted words of length n, all of them permutations, no
shorter word, length n throughout and no witness.  The walk counts them,
and the certificate passes exactly when the counts are the implied ones.

The proof follows the construction of the split builders.  Every
permutation of S splits uniquely after its first k symbols, so a
concatenation of the permutations of A with those of a disjoint B is the
*block* of permutations of A u B whose first |A| symbols are A.  A union
of blocks over one support S is every permutation of S exactly when each
maximal chain of subsets from the empty set to S meets the family of
block prefixes, because the prefix sets of a permutation form such a
chain.  One fold over the distinct DAG nodes gives each node it can a
descriptor (S, prefixes): a symbol s is ({s}, {{s}}), the concatenation
above is (A u B, {A}), and a union over one support merges its terms'
prefixes.  A family is tested only where a concatenation consumes it, or
at the root.  Anything else (stars, epsilon, the empty set, overlapping
or differing supports) is unknown and sends the expression to the walk.

The same fold counts the Sym leaves, proof or not.  That count is the
certificate's `positions` and the one the walk refuses on
(MAX_POSITIONS) before it builds its automaton.  At nodes without a
descriptor the fold also records what the length-n walk cannot see:
whether a star occurs, and which symbols outside 1..n some word of the
language reads.  A node with a descriptor needs neither, since it
denotes a nonempty, star-free set of permutations over 1..n.

The position automaton keeps one NFA state per Sym leaf, as many as the
fold counts.  A union's (nullable, first, last) value absorbs each
term's as soon as that term is done, so the terms' masks are never held
all at once.  State sets are Python ints used as bitmasks; stepping a
set is an or-loop over its set bits, which keeps the hot path in C.
Each follow set is stored as a window, shifted down to its lowest
member, so it costs the span of its members rather than a bit per
earlier position: `flat` n=7's table of 35 280 positions takes about
1 MB.  The table is still quadratic where follow windows are wide, as
when a big union is concatenated with a big union.  The walk combines
three facts into an unconditional certificate for star-free inputs:

  1. every word of length n over the alphabet is classified by running
     the automaton down the prefix tree (dead prefixes are pruned, with
     care not to prune away a rejected permutation silently);
  2. no shorter word is accepted (checked at every prefix, plus the
     empty word via the automaton's nullable flag);
  3. a length-abstraction walk proves every word of the language has
     one fixed length, closing the "longer than n" direction without
     enumerating it.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Literal, NamedTuple, Sequence

from .errors import CapExceeded, InvalidArgs, SizeCap
from .lengths import DEFAULT_VERIFY_CAP
from .regex_ast import Concat, EmptySet, Epsilon, Regex, Star, Sym, Union, fold

# The worst-case guard on the follow table: with windows as wide as the
# automaton, it takes about positions^2 / 8 bytes, 2 GB at this cap.
MAX_POSITIONS = 1 << 17
# The largest n the walk takes whatever the cap.  With every prefix live it
# visits all n^n words: (1+2+...+8) repeated 8 times takes 40 s, so n = 9
# takes about 15 minutes and n = 10 about 7 hours (2 CPUs, Python 3.11).
MAX_WALK_N = 9


class PositionNfa(NamedTuple):
    """Position automaton: one state per Sym occurrence of the source tree."""

    symbols: tuple[int, ...]
    first: int
    last: int
    follow: tuple[int, ...]
    follow_shift: tuple[int, ...]
    accepts_epsilon: bool

    @property
    def n_positions(self) -> int:
        return len(self.symbols)


def glushkov(expr: Regex) -> PositionNfa:
    """Build the position automaton.  Position count = alphabetic length.

    Shared subtrees are expanded: each logical Sym occurrence gets its
    own position, exactly as if the DAG were copied out to a tree, so a
    subtree's positions are one run starting at its first position.  Its
    first and last masks are held relative to that start.  The follow set
    of position p is `follow[p] << follow_shift[p]`: the window is the set
    shifted down to its lowest member, so it costs its span, not p bits.
    """
    symbols: list[int] = []
    follow: list[int] = []
    shift: list[int] = []
    # (nullable, start, first mask, last mask), masks relative to start
    values: list[tuple[bool, int, int, int]] = []
    work: list[tuple[Regex, bool]] = [(expr, False)]

    def add_follow(mask: int, base: int, target: int, target_base: int) -> None:
        """Add the set `target << target_base` to the follow set of each
        position `base + i` for bit i of `mask`."""
        low = (target & -target).bit_length() - 1
        target >>= low
        target_base += low
        while mask:
            bit = mask & -mask
            mask ^= bit
            p = base + bit.bit_length() - 1
            window = follow[p]
            if not window:
                follow[p], shift[p] = target, target_base
            elif target_base >= shift[p]:
                follow[p] = window | target << (target_base - shift[p])
            else:  # a star's edge back to an earlier position lowers the window
                follow[p] = window << (shift[p] - target_base) | target
                shift[p] = target_base

    while work:
        node, expanded = work.pop()
        kind = type(node)
        if not expanded:
            if kind is Sym:
                values.append((False, len(symbols), 1, 1))
                symbols.append(node.sym)
                follow.append(0)
                shift.append(0)
            elif kind is Epsilon:
                values.append((True, len(symbols), 0, 0))
            elif kind is EmptySet:
                values.append((False, len(symbols), 0, 0))
            elif kind is Star:
                work.append((node, True))
                work.append((node.child, False))
            elif kind is Concat:
                work.append((node, True))
                work.append((node.right, False))
                work.append((node.left, False))
            else:  # Union: each term's value is merged as soon as it is done
                values.append((False, len(symbols), 0, 0))
                for term in reversed(node.terms):
                    work += ((node, True), (term, False))
            continue
        if kind is Star:
            nullable, start, first, last = values.pop()
            if first:
                add_follow(last, start, first, start)
            values.append((True, start, first, last))
        elif kind is Concat:
            right_nullable, right_start, right_first, right_last = values.pop()
            left_nullable, start, left_first, left_last = values.pop()
            if right_first:
                add_follow(left_last, start, right_first, right_start)
            offset = right_start - start
            values.append((
                left_nullable and right_nullable,
                start,
                left_first | (right_first << offset if left_nullable else 0),
                right_last << offset | (left_last if right_nullable else 0),
            ))
        else:  # Union: merge one finished term into the union's running value
            term_nullable, term_start, term_first, term_last = values.pop()
            nullable, start, first, last = values[-1]
            offset = term_start - start
            values[-1] = (nullable or term_nullable, start,
                          first | term_first << offset, last | term_last << offset)
    nullable, _, first, last = values.pop()
    return PositionNfa(tuple(symbols), first, last, tuple(follow), tuple(shift), nullable)


def naive_matches(expr: Regex, word: Sequence[int]) -> bool:
    """Reference membership test by structural recursion over substring spans.

    Exponential in principle and meant for tiny inputs only; serves as an
    independent oracle against the automaton path in tests.
    """
    w = tuple(word)
    memo: dict[tuple[int, int, int], bool] = {}

    def matches(node: Regex, i: int, j: int) -> bool:
        key = (id(node), i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        kind = type(node)
        if kind is Sym:
            out = j == i + 1 and w[i] == node.sym
        elif kind is Epsilon:
            out = i == j
        elif kind is EmptySet:
            out = False
        elif kind is Union:
            out = any(matches(term, i, j) for term in node.terms)
        elif kind is Concat:
            out = any(
                matches(node.left, i, mid) and matches(node.right, mid, j)
                for mid in range(i, j + 1)
            )
        else:  # Star: peel a nonempty prefix so the recursion shrinks
            out = i == j or any(
                matches(node.child, i, mid) and matches(node, mid, j)
                for mid in range(i + 1, j + 1)
            )
        memo[key] = out
        return out

    return matches(expr, 0, len(w))


_EMPTY = object()    # denotes the empty language
_UNKNOWN = object()  # length not certifiable by this abstraction


def _word_length(node: Regex, *kids: object) -> object:
    kind = type(node)
    if kind is Sym:
        return 1
    if kind is Epsilon:
        return 0
    if kind is EmptySet:
        return _EMPTY
    if kind is Star:
        # Star of nothing (or of epsilon) is just epsilon.
        return 0 if kids[0] is _EMPTY or kids[0] == 0 else _UNKNOWN
    if kind is Union:
        # Uniform when every nonempty term has the same certified length.
        live = {kid for kid in kids if kid is not _EMPTY}
        if not live:
            return _EMPTY
        return live.pop() if len(live) == 1 else _UNKNOWN
    left, right = kids
    if left is _EMPTY or right is _EMPTY:
        return _EMPTY
    if left is _UNKNOWN or right is _UNKNOWN:
        return _UNKNOWN
    return left + right


def uniform_length(expr: Regex) -> int | None:
    """Exact word length k when every word of L(expr) has length k and L is
    provably nonempty; None when the language is empty or not certifiably
    uniform (any union of unequal lengths, or a star over nonempty words).
    """
    out = fold(expr, _word_length)
    return out if isinstance(out, int) else None


# The split proof is tried up to this n; the cover search is over 2^n
# subsets.  A split expression for n = 16 would need far more than the
# builders' 10^7 symbols.
MAX_SPLIT_N = 16

# A split descriptor (support, prefixes) stands for the union of the blocks
# of permutations of `support` whose first symbols are one of `prefixes`, a
# frozenset of subsets of it.  Symbol sets are bitmasks (bit s for symbol
# s), and a support among its own prefixes is every permutation of it.
Split = tuple[int, frozenset[int]]


def _covers(support: int, prefixes: frozenset[int]) -> bool:
    """Whether the blocks with these `prefixes` make up every permutation
    of `support`: no maximal chain from the empty set to the support avoids
    every prefix."""
    bits = [1 << s for s in range(support.bit_length()) if support >> s & 1]
    reached = {0}
    stack = [0]
    while stack:
        below = stack.pop()
        for bit in bits:
            grown = below | bit
            if grown in reached or grown in prefixes:
                continue
            if grown == support:
                return False
            reached.add(grown)
            stack.append(grown)
    return True


# The facts of a node with a descriptor: no star, no foreign symbol.
_PERMUTATIONS = (False, frozenset())


def _split_proof(expr: Regex, n: int) -> tuple[bool, int, bool, frozenset[int] | None]:
    """Whether the split structure of `expr` proves L(expr) = P_n; the
    alphabetic length of `expr`; whether it is star-free; and the symbols
    outside 1..n that some word of L(expr) reads, None when L(expr) is
    empty.  One fold yields all four; above MAX_SPLIT_N no Sym starts a
    descriptor, so the fold only counts and reads."""
    alphabet = n if n <= MAX_SPLIT_N else 0
    permutations_of: dict[Regex, int] = {}
    # Nodes with the same lone prefix share its frozenset.
    lone = cache(lambda prefix: frozenset((prefix,)))

    def perm_support(node: Regex, split: Split | None) -> int:
        """The support S if L(node) is certified to be every permutation of
        S, else 0.  Each consumed family is tested once."""
        if split is None:
            return 0
        support, prefixes = split
        if support in prefixes:
            return support
        # A chain that starts outside a lone prefix never meets it.
        if len(prefixes) == 1:
            return 0
        if node not in permutations_of:
            permutations_of[node] = support if _covers(support, prefixes) else 0
        return permutations_of[node]

    def describe(node: Regex, *kids: Split | None) -> Split | None:
        kind = type(node)
        if kind is Sym:
            # A symbol outside 1..n can never be part of a proof of P_n.
            bit = 1 << node.sym if 1 <= node.sym <= alphabet else 0
            return (bit, lone(bit)) if bit else None
        if kind is Concat:
            first = perm_support(node.left, kids[0])
            rest = perm_support(node.right, kids[1]) if first else 0
            return (first | rest, lone(first)) if rest and not first & rest else None
        if kind is Union:
            if None in kids or len({support for support, _ in kids}) > 1:
                return None
            return kids[0][0], frozenset().union(*(prefixes for _, prefixes in kids))
        return None

    def read(node: Regex, *kids: tuple) -> tuple[bool, frozenset[int] | None]:
        """Whether a star occurs in a node without a descriptor, and its
        live symbols outside 1..n (None: L(node) is empty)."""
        kind = type(node)
        if kind is Sym:
            return False, frozenset() if 1 <= node.sym <= n else frozenset((node.sym,))
        if kind is Epsilon:
            return False, frozenset()
        if kind is EmptySet:
            return False, None
        stars, lives = zip(*kids)
        if kind is Star:
            return True, lives[0] or frozenset()
        present = [live for live in lives if live is not None]
        if not present or (kind is Concat and len(present) < 2):
            return True in stars, None
        return True in stars, frozenset().union(*present)

    def describe_count_read(node: Regex, *kids: tuple) -> tuple:
        splits, counts, facts = zip(*kids) if kids else ((), (type(node) is Sym,), ())
        split = describe(node, *splits)
        return split, sum(counts), read(node, *facts) if split is None else _PERMUTATIONS

    root, positions, facts = fold(expr, describe_count_read)
    full = ((1 << alphabet) - 1) << 1
    proved = root is not None and root[0] == full and perm_support(expr, root) == full
    star, foreign = facts
    return proved, positions, not star, foreign


class Certificate(NamedTuple):
    """Result of the language comparison against P_n.

    `method` is "structural" when the split structure proved the equality;
    every count is then implied by the proof (`words_tested` is the n^n
    length-n words decided, not words enumerated).  It is "exhaustive"
    when the automaton walked all n^n words.
    """

    n: int
    positions: int
    words_tested: int
    accepted: int
    expected_accepted: int
    permutations_accepted: int
    short_words_accepted: int
    accepts_empty_word: bool
    uniform_length: int | None
    star_free: bool
    passed: bool
    violations: tuple[str, ...]
    method: Literal["structural", "exhaustive"]


_MAX_WITNESSES = 20


def language_equals_permutations(
    expr: Regex, n: int, cap: int = DEFAULT_VERIFY_CAP
) -> Certificate:
    """Certify L(expr) = P_n.

    The split structure is tried first, for any n.  When it does not prove
    the equality, all n^n length-n words are checked plus the structural
    uniform-length property.  That walk refuses n beyond `cap`, or beyond
    MAX_WALK_N whatever the cap, because the enumeration is n^n, and
    expressions over MAX_POSITIONS symbol occurrences because the
    automaton's follow table is quadratic in them at worst.
    """
    if n < 1:
        raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
    return _certificate(expr, n, cap, *_split_proof(expr, n))


def _certificate(
    expr: Regex, n: int, cap: int, proved: bool, positions: int, star_free: bool,
    foreign: frozenset[int] | None,
) -> Certificate:
    """The certificate with the counts a proof implies when `proved`, else
    with the walk's; it passes exactly when they are the implied ones."""
    factorial = math.factorial(n)
    implied = (factorial, factorial, 0, False, n, ())
    counts = implied if proved else _walk(expr, n, cap, positions, foreign)
    accepted, permutations, short, empty, length, violations = counts
    return Certificate(
        n=n, positions=positions, words_tested=n**n, accepted=accepted,
        expected_accepted=factorial, permutations_accepted=permutations,
        short_words_accepted=short, accepts_empty_word=empty, uniform_length=length,
        star_free=star_free, passed=counts == implied, violations=violations,
        method="structural" if proved else "exhaustive")


def require_walkable(n: int, cap: int, positions: int) -> None:
    """Raise what the walk refuses for n symbols under `cap` and an
    expression of `positions` symbol occurrences: CapExceeded for n beyond
    `cap` or MAX_WALK_N, then SizeCap beyond MAX_POSITIONS."""
    ceiling = min(cap, MAX_WALK_N)
    if n > ceiling:
        raise CapExceeded(
            f"exhaustive verification capped at n = {ceiling} ({n}^{n} words is too many)")
    if positions > MAX_POSITIONS:
        raise SizeCap(positions, MAX_POSITIONS, what="automaton positions")


def _walk(
    expr: Regex, n: int, cap: int, positions: int, foreign: frozenset[int] | None,
) -> tuple[int, int, int, bool, int | None, tuple[str, ...]]:
    """The walk over all n^n length-n words, under `cap`, MAX_WALK_N and
    MAX_POSITIONS: the words of length n accepted, the permutations among
    them, the shorter nonempty words accepted, whether the empty word is,
    the uniform length and the witnesses.  `positions` and the live
    `foreign` symbols are what the split fold read of `expr`."""
    require_walkable(n, cap, positions)
    nfa = glushkov(expr)
    ulen = uniform_length(expr)
    follow, follow_shift, last = nfa.follow, nfa.follow_shift, nfa.last
    # masks[c]: the positions that read c; no other symbol is stepped on.
    masks = [0] * (n + 1)
    for p, s in enumerate(nfa.symbols):
        if 1 <= s <= n:
            masks[s] |= 1 << p
    full_used = (1 << n) - 1
    violations: list[str] = []

    def note(message: str) -> None:
        if len(violations) < _MAX_WITNESSES:
            violations.append(message)

    for s in sorted(foreign or ()):
        note(f"a reachable, accepting path reads symbol {s} outside 1..{n}")
    if nfa.accepts_epsilon:
        note("accepts the empty word")
    if ulen != n:
        note(f"word length not certifiably uniform at {n} (analysis gave {ulen})")

    accepted = 0
    perms_accepted = 0
    short_accepted = 0
    prefix: list[int] = []

    def walk(depth: int, active: int, used: int) -> None:
        nonlocal accepted, perms_accepted, short_accepted
        if depth == n:
            if active & last:
                accepted += 1
                if used == full_used:
                    perms_accepted += 1
                else:
                    note("accepted non-permutation " + "".join(map(str, prefix)))
            elif used == full_used:
                note("rejected permutation " + "".join(map(str, prefix)))
            return
        if depth > 0 and active & last:
            short_accepted += 1
            note(f"accepted length-{depth} word " + "".join(map(str, prefix)))
        # Step the active set; the root's is empty and steps to `first`.
        step = nfa.first if depth == 0 else 0
        while active:
            low = active & -active
            q = low.bit_length() - 1
            step |= follow[q] << follow_shift[q]
            active ^= low
        distinct_so_far = used.bit_count() == depth
        for c in range(1, n + 1):
            bit = 1 << (c - 1)
            nxt = step & masks[c]
            if not nxt:
                # Dead subtree: nothing below is accepted.  That is only fine
                # if nothing below needed accepting.
                if distinct_so_far and not used & bit:
                    prefix.append(c)
                    note("rejected permutations with prefix " + "".join(map(str, prefix)))
                    prefix.pop()
                continue
            prefix.append(c)
            walk(depth + 1, nxt, used | bit)
            prefix.pop()

    walk(0, 0, 0)

    return (accepted, perms_accepted, short_accepted, nfa.accepts_epsilon, ulen,
            tuple(violations))
