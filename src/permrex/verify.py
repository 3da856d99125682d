"""Automaton-based certification that an expression denotes exactly P_n.

The position automaton keeps one NFA state per Sym leaf, so its state
count doubles as a structural cross-check of alphabetic length.  State
sets are Python ints used as bitmasks; stepping a set is an or-loop
over its set bits, which keeps the hot path in C.

The headline operation, language_equals_permutations, combines three
facts into an unconditional certificate for star-free inputs:

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
from typing import Sequence

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


def _live_positions(nfa: PositionNfa) -> int:
    """Positions both reachable from the start and able to reach acceptance."""
    forward = nfa.first
    while True:
        grown = forward | _step(nfa, forward)
        if grown == forward:
            break
        forward = grown
    reverse: list[int] = [0] * len(nfa.follow)
    for p, targets in enumerate(nfa.follow):
        mask = targets
        while mask:
            low = mask & -mask
            reverse[low.bit_length() - 1] |= 1 << p
            mask ^= low
    backward = nfa.last
    while True:
        step = 0
        mask = backward
        while mask:
            low = mask & -mask
            step |= reverse[low.bit_length() - 1]
            mask ^= low
        grown = backward | step
        if grown == backward:
            break
        backward = grown
    return forward & backward


@dataclass(frozen=True)
class Certificate:
    """Result of the exhaustive language comparison against P_n."""

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
    violations: tuple[str, ...] = ()


_MAX_WITNESSES = 20


def language_equals_permutations(
    expr: Regex, n: int, cap: int = DEFAULT_VERIFY_CAP
) -> Certificate:
    """Certify L(expr) = P_n by checking all n^n length-n words plus the
    structural uniform-length property.  Refuses n beyond `cap` because the
    enumeration is n^n, and expressions over MAX_POSITIONS symbol
    occurrences because the automaton's follow table is quadratic in them.
    """
    if n < 1:
        raise InvalidArgs(f"alphabet size must be >= 1, got {n}")
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

    live = _live_positions(nfa)
    foreign = {s for s in set(nfa.symbols) if not 1 <= s <= n}
    for s in sorted(foreign):
        if live & masks[s]:
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
    )
