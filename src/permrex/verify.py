"""Certification that an expression denotes exactly P_n.

language_equals_permutations tries a proof first and falls back to an
exhaustive walk.

The proof follows the construction of the split builders.  Every
permutation of S splits uniquely after its first k symbols, so a
concatenation of the permutations of A with those of a disjoint B is the
*block* of permutations of A u B whose first |A| symbols are A.  A union
of blocks over one support S is every permutation of S exactly when each
maximal chain of subsets from the empty set to S meets the family of
block prefixes, because the prefix sets of a permutation form such a
chain.  One fold over the distinct DAG nodes computes these descriptors
and tests a family only where a concatenation consumes it, or at the
root.  Anything else (stars, epsilon, the empty set, overlapping or
differing supports) is unknown and sends the expression to the walk.

The walk runs the position automaton, which keeps one NFA state per Sym
leaf, so its state count doubles as a structural cross-check of
alphabetic length.  State sets are Python ints used as bitmasks;
stepping a set is an or-loop over its set bits, which keeps the hot path
in C.  It combines three facts into an unconditional certificate for
star-free inputs:

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
from dataclasses import dataclass
from typing import Literal, Sequence

from .errors import CapExceeded, InvalidArgs, SizeCap
from .regex_ast import (
    Concat, EmptySet, Epsilon, Regex, Star, Sym, Union, alphabetic_length, fold, postorder)

DEFAULT_VERIFY_CAP = 7
# The follow table is dense, about positions^2 / 8 bytes: 2 GB at this cap.
MAX_POSITIONS = 1 << 17

Word = tuple[int, ...]


@dataclass(frozen=True)
class PositionNfa:
    """Position automaton: one state per Sym occurrence of the source tree."""

    symbols: tuple[int, ...]
    first: int
    last: int
    follow: tuple[int, ...]
    accepts_epsilon: bool

    @property
    def n_positions(self) -> int:
        return len(self.symbols)

    def symbol_masks(self) -> dict[int, int]:
        masks: dict[int, int] = {}
        for p, s in enumerate(self.symbols):
            masks[s] = masks.get(s, 0) | (1 << p)
        return masks


def glushkov(expr: Regex) -> PositionNfa:
    """Build the position automaton.  Position count = alphabetic length.

    Shared subtrees are expanded: each logical Sym occurrence gets its
    own position, exactly as if the DAG were copied out to a tree.
    """
    symbols: list[int] = []
    follow: list[int] = []
    values: list[tuple[bool, int, int]] = []  # (nullable, first mask, last mask)
    work: list[tuple[Regex, bool]] = [(expr, False)]
    while work:
        node, expanded = work.pop()
        kind = type(node)
        if not expanded:
            if kind is Sym:
                bit = 1 << len(symbols)
                symbols.append(node.sym)
                follow.append(0)
                values.append((False, bit, bit))
            elif kind is Epsilon:
                values.append((True, 0, 0))
            elif kind is EmptySet:
                values.append((False, 0, 0))
            elif kind is Star:
                work.append((node, True))
                work.append((node.child, False))
            else:
                work.append((node, True))
                work.append((node.right, False))
                work.append((node.left, False))
            continue
        if kind is Star:
            nullable, first, last = values.pop()
            mask = last
            while mask:
                low = mask & -mask
                follow[low.bit_length() - 1] |= first
                mask ^= low
            values.append((True, first, last))
        elif kind is Concat:
            right_nullable, right_first, right_last = values.pop()
            left_nullable, left_first, left_last = values.pop()
            mask = left_last
            while mask:
                low = mask & -mask
                follow[low.bit_length() - 1] |= right_first
                mask ^= low
            values.append((
                left_nullable and right_nullable,
                left_first | (right_first if left_nullable else 0),
                right_last | (left_last if right_nullable else 0),
            ))
        else:  # Union
            right_nullable, right_first, right_last = values.pop()
            left_nullable, left_first, left_last = values.pop()
            values.append((
                left_nullable or right_nullable,
                left_first | right_first,
                left_last | right_last,
            ))
    nullable, first, last = values.pop()
    return PositionNfa(tuple(symbols), first, last, tuple(follow), nullable)


def _step(nfa: PositionNfa, active: int) -> int:
    out = 0
    mask = active
    follow = nfa.follow
    while mask:
        low = mask & -mask
        out |= follow[low.bit_length() - 1]
        mask ^= low
    return out


def accepts(nfa: PositionNfa, word: Sequence[int]) -> bool:
    """Bit-parallel simulation of the position automaton on one word."""
    if not word:
        return nfa.accepts_epsilon
    masks = nfa.symbol_masks()
    active = nfa.first & masks.get(word[0], 0)
    for c in word[1:]:
        if not active:
            return False
        active = _step(nfa, active) & masks.get(c, 0)
    return bool(active & nfa.last)


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
            out = matches(node.left, i, j) or matches(node.right, i, j)
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
    left, right = kids
    if kind is Union:
        if left is _EMPTY:
            return right
        if right is _EMPTY:
            return left
        return left if left == right and left is not _UNKNOWN else _UNKNOWN
    # Concat
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


def contains_star(expr: Regex) -> bool:
    return any(type(node) is Star for node in postorder(expr))


def _word_symbols(node: Regex, *kids: object) -> object:
    kind = type(node)
    if kind is Sym:
        return frozenset((node.sym,))
    if kind is Epsilon:
        return frozenset()
    if kind is EmptySet:
        return _EMPTY
    if kind is Star:
        return frozenset() if kids[0] is _EMPTY else kids[0]
    left, right = kids
    if kind is Concat and (left is _EMPTY or right is _EMPTY):
        return _EMPTY
    if left is _EMPTY:
        return right
    if right is _EMPTY or right <= left:
        return left
    return left | right


def word_symbols(expr: Regex) -> frozenset[int] | None:
    """The symbols that some word of L(expr) reads; None when L is empty.

    A position of the Glushkov automaton lies on an accepted word exactly
    when its symbol occurrence does, so these are the symbols of its live
    positions.
    """
    out = fold(expr, _word_symbols)
    return None if out is _EMPTY else out


# The split proof is tried up to this n; the cover search is over 2^n
# subsets.  A split expression for n = 16 would need far more than the
# builders' 10^7 symbols.
MAX_SPLIT_N = 16

# A split descriptor is (support, prefix) for the block of permutations of
# `support` whose first |prefix| symbols are `prefix`, or (support, left,
# right) for the union of two descriptors over one support.  Symbol sets
# are bitmasks (bit s for symbol s).  (S, S) is every permutation of S.
Split = tuple


def _covers(family: Split) -> bool:
    """Whether the union of the blocks in `family` is every permutation of
    its support: no maximal chain from the empty set to the support avoids
    every block prefix.  The linked unions are flattened here, once."""
    support = family[0]
    prefixes: set[int] = set()
    joined: set[int] = set()
    stack = [family]
    while stack:
        part = stack.pop()
        if len(part) == 2:
            prefixes.add(part[1])
        elif id(part) not in joined:
            joined.add(id(part))
            stack += part[1:]
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


def _split_positions(expr: Regex, n: int) -> int | None:
    """The alphabetic length of `expr` if its split structure proves
    L(expr) = P_n, else None.  One fold yields both."""
    if n > MAX_SPLIT_N:
        return None
    permutations_of: dict[Regex, int] = {}

    def perm_support(node: Regex, split: Split | None) -> int:
        """The support S if L(node) is certified to be every permutation of
        S, else 0.  Each consumed family is tested once."""
        if split is None:
            return 0
        if len(split) == 2:
            # One block covers its support only when its prefix is all of it:
            # a chain that starts outside the prefix never meets it.
            return split[0] if split[0] == split[1] else 0
        if node not in permutations_of:
            permutations_of[node] = split[0] if _covers(split) else 0
        return permutations_of[node]

    def describe(node: Regex, *kids: Split | None) -> Split | None:
        kind = type(node)
        if kind is Sym:
            # A symbol outside 1..n can never be part of a proof of P_n.
            bit = 1 << node.sym if 1 <= node.sym <= n else 0
            return (bit, bit) if bit else None
        if kind is Concat:
            first = perm_support(node.left, kids[0])
            rest = perm_support(node.right, kids[1]) if first else 0
            return (first | rest, first) if rest and not first & rest else None
        if kind is Union:
            left, right = kids
            if left is None or right is None or left[0] != right[0]:
                return None
            if left[0] == left[1]:
                return left
            if right[0] == right[1]:
                return right
            return left[0], left, right
        return None

    def describe_and_count(
        node: Regex, *kids: tuple[Split | None, int]
    ) -> tuple[Split | None, int]:
        if not kids:
            return describe(node), int(type(node) is Sym)
        splits, counts = zip(*kids)
        return describe(node, *splits), sum(counts)

    full = ((1 << n) - 1) << 1
    root, positions = fold(expr, describe_and_count)
    proved = root is not None and root[0] == full and perm_support(expr, root) == full
    return positions if proved else None


@dataclass(frozen=True)
class Certificate:
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
    uniform-length property.  That walk refuses n beyond `cap` because the
    enumeration is n^n, and expressions over MAX_POSITIONS symbol
    occurrences because the automaton's follow table is quadratic in them.
    """
    if n < 1:
        raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
    positions = _split_positions(expr, n)
    if positions is not None:
        factorial = math.factorial(n)
        return Certificate(
            n=n,
            positions=positions,
            words_tested=n**n,
            accepted=factorial,
            expected_accepted=factorial,
            permutations_accepted=factorial,
            short_words_accepted=0,
            accepts_empty_word=False,
            uniform_length=n,
            star_free=True,
            passed=True,
            violations=(),
            method="structural",
        )
    return _exhaustive_certificate(expr, n, cap)


def _exhaustive_certificate(expr: Regex, n: int, cap: int) -> Certificate:
    """The walk over all n^n length-n words, under `cap` and MAX_POSITIONS."""
    if n > cap:
        raise CapExceeded(
            f"exhaustive verification capped at n = {cap} ({n}^{n} words is too many)")
    positions = alphabetic_length(expr)
    if positions > MAX_POSITIONS:
        raise SizeCap(positions, MAX_POSITIONS, what="automaton positions")

    nfa = glushkov(expr)
    ulen = uniform_length(expr)
    star_free = not contains_star(expr)
    masks = nfa.symbol_masks()
    factorial = math.factorial(n)
    full_used = (1 << n) - 1
    violations: list[str] = []

    def note(message: str) -> None:
        if len(violations) < _MAX_WITNESSES:
            violations.append(message)

    for s in sorted(word_symbols(expr) or ()):
        if not 1 <= s <= n:
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
            if active & nfa.last:
                accepted += 1
                if used == full_used:
                    perms_accepted += 1
                else:
                    note("accepted non-permutation " + "".join(map(str, prefix)))
            elif used == full_used:
                note("rejected permutation " + "".join(map(str, prefix)))
            return
        if depth > 0 and active & nfa.last:
            short_accepted += 1
            note(f"accepted length-{depth} word " + "".join(map(str, prefix)))
        step = nfa.first if depth == 0 else _step(nfa, active)
        distinct_so_far = used.bit_count() == depth
        for c in range(1, n + 1):
            bit = 1 << (c - 1)
            nxt = step & masks.get(c, 0)
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

    passed = (
        accepted == factorial
        and perms_accepted == factorial
        and short_accepted == 0
        and not nfa.accepts_epsilon
        and ulen == n
        and not violations
    )
    return Certificate(
        n=n,
        positions=nfa.n_positions,
        words_tested=n**n,
        accepted=accepted,
        expected_accepted=factorial,
        permutations_accepted=perms_accepted,
        short_words_accepted=short_accepted,
        accepts_empty_word=nfa.accepts_epsilon,
        uniform_length=ulen,
        star_free=star_free,
        passed=passed,
        violations=tuple(violations),
        method="exhaustive",
    )
