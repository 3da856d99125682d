"""Exact alphabetic-length arithmetic for the permutation-language builders.

Everything here is arbitrary-precision integer (or Fraction) math; no
floating point.  f(n) is the length of the divide-and-conquer
expression, t(n) of the tail-recursive one, and n*n! of the flat union.

f satisfies f(1) = 1 and

    f(n) = C(n, floor(n/2)) * (f(floor(n/2)) + f(ceil(n/2)))

and the two exhaustive checks below confirm, up to a configurable cap,
that halving is the uniquely optimal split (check_opt_choice) and that
f grows at least threefold per step (check_triple_growth).

No sweep here calls math.comb per value.  check_opt_choice walks row n
of Pascal's triangle, C(n, k) = C(n, k-1) * (n-k+1) // k, and computes
the slack only for k <= n/2: split_delta(n, k) = split_delta(n, n-k)
exactly, because C(n, k) = C(n, n-k).  f_table builds f bottom-up and
carries the middle binomial C(n, floor(n/2)) from one n to the next;
f_values is the same walk as a stream, which keeps only the values that
later ones read.
split_delta stays the reference definition of the slack.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterator, NamedTuple

from .errors import InvalidArgs

DEFAULT_LEMMA_CAP = 512
# `lemmas` takes 4.6-7.7 s at n = 2048 in one process on a shared 2-CPU machine
# (Python 3.11.7), and doubling n costs 6-10x: the sweep multiplies n^2/4
# pairs of ~2n-bit numbers.
MAX_LEMMA_N = 2048
# The grid limit of the `bounds` bracket sweeps and the default cap of
# `verify`'s exhaustive walk, defined here so that building the CLI parser,
# which reads them, loads neither `bounds` nor `verify`.
MAX_GRID_POINTS = 10_000
DEFAULT_VERIFY_CAP = 7


@cache
def f(n: int) -> int:
    """Alphabetic length of the divide-and-conquer expression over n symbols."""
    if n < 1:
        raise InvalidArgs(f"f is defined for n >= 1, got {n}")
    if n == 1:
        return 1
    # Recursion halves n, so the stack depth is log2(n).
    half = n // 2
    return math.comb(n, half) * (f(half) + f(n - half))


def f_table(max_n: int) -> list[int]:
    """[f(1), ..., f(max_n)], built bottom-up.

    Dense callers read this table; f stays a top-down cache because its
    sparse callers (size probes, powers of two) need only the O(log n)
    values on n's halving path.
    """
    if max_n < 1:
        raise InvalidArgs(f"table needs max_n >= 1, got {max_n}")
    return list(f_values(max_n))


def f_values(max_n: int) -> Iterator[int]:
    """f(1), ..., f(max_n) in order, bottom-up.  f(n) reads only f(floor(n/2))
    and f(ceil(n/2)), so only the values up to ceil(max_n/2) are kept."""
    kept = [1]  # kept[n - 1] = f(n) for n <= ceil(max_n / 2)
    middle = 1  # C(n, floor(n/2)), starting at n = 1
    if max_n >= 1:
        yield 1
    for n in range(2, max_n + 1):
        half = n // 2
        middle = middle * n // (n - half)  # C(n, half) from C(n - 1, (n - 1) // 2)
        value = middle * (kept[half - 1] + kept[n - half - 1])
        if 2 * n <= max_n + 1:
            kept.append(value)
        yield value


def t(n: int) -> int:
    """Alphabetic length of the tail-recursive expression: t(1)=1, t(n)=n(1+t(n-1))."""
    if n < 1:
        raise InvalidArgs(f"t is defined for n >= 1, got {n}")
    value = 1
    for i in range(2, n + 1):
        value = i * (1 + value)
    return value


def flat_length(n: int) -> int:
    """Alphabetic length n * n! of the flat union over all permutations."""
    if n < 1:
        raise InvalidArgs(f"flat_length is defined for n >= 1, got {n}")
    return n * math.factorial(n)


def split_delta(n: int, k: int) -> int:
    """Extra cost C(n,k)*(f(k)+f(n-k)) - f(n) of splitting n as k + (n-k)."""
    if not 0 < k < n:
        raise InvalidArgs(f"split size needs 0 < k < n, got n={n}, k={k}")
    return math.comb(n, k) * (f(k) + f(n - k)) - f(n)


class SplitViolation(NamedTuple):
    n: int
    k: int
    delta: int
    reason: str


class OptChoiceReport(NamedTuple):
    """Outcome of sweeping every split size k for one n."""

    n: int
    passed: bool
    equality_ks: tuple[int, ...]
    violations: tuple[SplitViolation, ...] = ()


def check_opt_choice(n: int) -> OptChoiceReport:
    """Check that every split is at least as long as the halved one.

    For each 0 < k < n the slack delta(k) must be nonnegative, and zero
    exactly at k in {floor(n/2), ceil(n/2)}.  A failed inequality is
    reported as a violation record, not raised.
    """
    if n < 1:
        raise InvalidArgs(f"check_opt_choice needs n >= 1, got {n}")
    best = {n // 2, (n + 1) // 2}
    whole = f(n)
    deltas = [0] * n  # deltas[k] = split_delta(n, k) for 0 < k < n
    binomial = 1
    for k in range(1, n // 2 + 1):
        binomial = binomial * (n - k + 1) // k  # C(n, k) from C(n, k - 1)
        deltas[k] = deltas[n - k] = binomial * (f(k) + f(n - k)) - whole
    violations: list[SplitViolation] = []
    equality: list[int] = []
    for k in range(1, n):
        delta = deltas[k]
        if delta < 0:
            violations.append(SplitViolation(n, k, delta, "negative slack"))
        elif delta == 0:
            equality.append(k)
            if k not in best:
                violations.append(SplitViolation(n, k, delta, "unexpected tie"))
        elif k in best:
            violations.append(SplitViolation(n, k, delta, "halved split not tight"))
    return OptChoiceReport(
        n=n,
        passed=not violations,
        equality_ks=tuple(equality),
        violations=tuple(violations),
    )


class GrowthViolation(NamedTuple):
    n: int
    ratio: Fraction  # f(n+1)/f(n), below 3


class TripleGrowthReport(NamedTuple):
    """Outcome of checking f(n+1) >= 3 f(n) for all 1 <= n < max_n."""

    passed: bool
    min_ratio: Fraction | None
    min_ratio_at: int | None
    violations: tuple[GrowthViolation, ...] = ()


def check_triple_growth(max_n: int) -> TripleGrowthReport:
    """Exact sweep of the threefold growth inequality below max_n."""
    if max_n < 1:
        raise InvalidArgs(f"check_triple_growth needs max_n >= 1, got {max_n}")
    min_ratio: Fraction | None = None
    min_at: int | None = None
    violations: list[GrowthViolation] = []
    for n in range(1, max_n):
        ratio = Fraction(f(n + 1), f(n))
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
            min_at = n
        if ratio < 3:
            violations.append(GrowthViolation(n, ratio))
    return TripleGrowthReport(
        passed=not violations,
        min_ratio=min_ratio,
        min_ratio_at=min_at,
        violations=tuple(violations),
    )
