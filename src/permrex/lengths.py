"""Exact alphabetic-length arithmetic for the permutation-language builders.

Everything here is arbitrary-precision integer (or Fraction) math; no
floating point.  f(n) is the length of the divide-and-conquer
expression, t(n) of the tail-recursive one, and n*n! of the flat union.

f satisfies f(1) = 1 and

    f(n) = C(n, floor(n/2)) * (f(floor(n/2)) + f(ceil(n/2)))

and the two exhaustive checks below confirm, up to a configurable cap,
that halving is the uniquely optimal split (check_opt_choice) and that
f grows at least threefold per step (check_triple_growth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .errors import InvalidArgs

DEFAULT_LEMMA_CAP = 512
# `lemmas` grows about as n^3.7: 94 s at n = 2048, hours at 8192.
MAX_LEMMA_N = 2048


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
    """[f(1), ..., f(max_n)] with the shared cache filled densely."""
    if max_n < 1:
        raise InvalidArgs(f"table needs max_n >= 1, got {max_n}")
    return [f(n) for n in range(1, max_n + 1)]


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


@dataclass(frozen=True)
class SplitViolation:
    n: int
    k: int
    delta: int
    reason: str


@dataclass(frozen=True)
class OptChoiceReport:
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
    violations: list[SplitViolation] = []
    equality: list[int] = []
    for k in range(1, n):
        delta = split_delta(n, k)
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


@dataclass(frozen=True)
class TripleGrowthReport:
    """Outcome of checking f(n+1) >= 3 f(n) for all 1 <= n < max_n."""

    max_n: int
    passed: bool
    min_ratio: Fraction | None
    min_ratio_at: int | None
    violations: tuple[tuple[int, Fraction], ...] = field(default=())


def check_triple_growth(max_n: int) -> TripleGrowthReport:
    """Exact sweep of the threefold growth inequality below max_n."""
    if max_n < 1:
        raise InvalidArgs(f"check_triple_growth needs max_n >= 1, got {max_n}")
    min_ratio: Fraction | None = None
    min_at: int | None = None
    violations: list[tuple[int, Fraction]] = []
    for n in range(1, max_n):
        ratio = Fraction(f(n + 1), f(n))
        if min_ratio is None or ratio < min_ratio:
            min_ratio = ratio
            min_at = n
        if ratio < 3:
            violations.append((n, ratio))
    return TripleGrowthReport(
        max_n=max_n,
        passed=not violations,
        min_ratio=min_ratio,
        min_ratio_at=min_at,
        violations=tuple(violations),
    )
