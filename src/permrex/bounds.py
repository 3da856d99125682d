"""Certified real-number checks for the growth of f(n).

Every real value is an mpmath interval (`mpmath.iv.mpf`): a closed
interval guaranteed to contain the exact real, on which every operation
rounds outward.  Rationals enter through `rational`, integers as
`mpmath.iv.mpf(n)`, and an interval input x = [a, b] as
`mpmath.iv.mpf([a, b])`.  mpmath's
comparisons on intervals are three-valued (True, False, or None when
the intervals overlap), so a check can come back certified, violated,
or undecided, and undecided answers are retried up the precision ladder
(default 200 bits, doubling to a 2000-bit ceiling) rather than glossed
over.

Every check runs through one ladder and one sweep: `_sweep` feeds each
(label, judge) point to `_climb`, which re-runs the judge one rung higher
until it decides, and the report keeps the worst certified point.  There
are two judges.  `_le_judge` certifies lhs <= rhs pairs, and serves the
factorial sandwich, the bracket lemmas, the growth bound and the domain
filter of the growth-template bracket.  The doubling identity has its own
judge: the two sides must overlap, or it is violated, and both radii must
drop below IDENTITY_TIGHTNESS, or it is undecided.

The checks certify, against exact integer f(n):

  * the factorial sandwich  e^(1/(12n+1)) S(n) <= n! <= e^(1/12n) S(n)
    for the Stirling term S(x) = sqrt(2 pi x) (x/e)^x;
  * bracketing of S(x)S(x+1) by S(x+1/2)^2;
  * bracketing of g_a(x) + g_a(x+1) by (5/2) g_a(x+1/2), where
    g_a(x) = 4^x x^(a - lg(x)/4) is the growth template;
  * the doubling identity  b S(2x)/S(x)^2 g_a(x) = g_a(2x)  for
    a = lg(b) + 1/4 - lg(pi)/2;
  * the two-sided growth bound 0.195 g_al(n) <= f(n) <= (1/4) g_ah(n)
    with al = 5/4 - lg(pi)/2 and ah = lg(5) - 3/4 - lg(pi)/2, plus the
    sharper f(n) <= (1/4) g_al(n) at powers of two.

The n = 1 upper bound holds with exact equality, so g_alpha keeps
integer inputs on an exact path (4^k is one mantissa bit; 1^w is [1,1])
and comparisons accept touching intervals for <=.

mpmath is reached through one module object, `mpmath`, which
`importlib.util.LazyLoader` imports in full at its first attribute
access.  Importing this module, and with it the CLI, therefore loads no
mpmath; the first interval operation does.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

from . import lengths
from .errors import DomainError, InvalidArgs


def _load_on_first_use(name: str):
    """The module `name`, imported in full at its first attribute access
    (or the module itself, if something imported it already)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


mpmath = _load_on_first_use("mpmath")


DEFAULT_PRECISION_BITS = 200
MAX_PRECISION_BITS = 2000
MAX_GRID_POINTS = 10_000
MAX_SWEEP_N = 16_384  # the two n-sweeps take about 100 s there
IDENTITY_TIGHTNESS = Fraction(1, 10**30)  # radius both sides of the identity must reach

CERTIFIED = "certified"
UNDECIDED = "undecided"
VIOLATED = "violated"


def require_precision(bits: int) -> int:
    """Return bits if it is a usable starting precision, else raise InvalidArgs."""
    if not 16 <= bits <= MAX_PRECISION_BITS:
        raise InvalidArgs(
            f"precision must be in [16, {MAX_PRECISION_BITS}] bits, got {bits}")
    return bits


def precision_ladder(base_bits: int = DEFAULT_PRECISION_BITS) -> list[int]:
    """Escalation schedule: base, then doubling, clamped at the ceiling."""
    ladder = [require_precision(base_bits)]
    while ladder[-1] < MAX_PRECISION_BITS:
        ladder.append(min(ladder[-1] * 2, MAX_PRECISION_BITS))
    return ladder


@contextmanager
def precision(bits: int) -> Iterator[None]:
    """Set mpmath.iv.prec for the block and restore it on exit."""
    saved = mpmath.iv.prec
    mpmath.iv.prec = bits
    try:
        yield
    finally:
        mpmath.iv.prec = saved


def rational(q: Fraction) -> mpmath.iv.mpf:
    """The interval of the rational q at the ambient precision."""
    return mpmath.iv.mpf(q.numerator) / mpmath.iv.mpf(q.denominator)


def endpoints(x: mpmath.iv.mpf) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Both endpoints as exact mpf values (no rounding on extraction)."""
    lo, hi = x._mpi_
    return mpmath.mp.make_mpf(lo), mpmath.mp.make_mpf(hi)


def exact_int(x: mpmath.iv.mpf) -> int | None:
    """The integer the interval x pins down exactly, if any."""
    lo, hi = endpoints(x)
    if lo != hi or not mpmath.mp.isint(lo):
        return None
    return int(lo)


def contains(x: mpmath.iv.mpf, q: Fraction | int) -> bool:
    """Whether x holds the rational q; exact, as both endpoints are dyadic."""
    lo, hi = endpoints(x)
    if not (mpmath.mp.isfinite(lo) and mpmath.mp.isfinite(hi)):
        return False
    lo, hi = (Fraction(*map(int, mpmath.libmp.to_rational(e._mpf_))) for e in (lo, hi))
    return lo <= q <= hi


def format_interval(x: mpmath.iv.mpf, digits: int = 12) -> str:
    lo, hi = endpoints(x)
    return f"[{mpmath.nstr(lo, digits)}, {mpmath.nstr(hi, digits)}]"


def enc_log(x: mpmath.iv.mpf) -> mpmath.iv.mpf:
    if not x > 0:
        raise DomainError(f"log needs a certainly-positive argument, got {format_interval(x)}")
    return mpmath.iv.log(x)


def enc_sqrt(x: mpmath.iv.mpf) -> mpmath.iv.mpf:
    if not x >= 0:
        raise DomainError(f"sqrt needs a nonnegative argument, got {format_interval(x)}")
    return mpmath.iv.sqrt(x)


def enc_pow(base: mpmath.iv.mpf, exponent: mpmath.iv.mpf | Fraction | int) -> mpmath.iv.mpf:
    """base ** exponent via exp(exponent * log base); exact for integer
    exponents and for base exactly 1."""
    if isinstance(exponent, int) or (
        isinstance(exponent, Fraction) and exponent.denominator == 1
    ):
        return base ** int(exponent)
    if isinstance(exponent, Fraction):
        exponent = rational(exponent)
    if exact_int(base) == 1:
        return mpmath.iv.mpf(1)
    return mpmath.iv.exp(exponent * enc_log(base))


def compare_le(lhs: mpmath.iv.mpf, rhs: mpmath.iv.mpf) -> str:
    """Three-valued certified comparison of the exact values inside."""
    if (lhs <= rhs) is True:
        return CERTIFIED
    # Strictly disjoint the wrong way round means the exact values violate.
    if rhs < lhs:
        return VIOLATED
    return UNDECIDED


def overlap(lhs: mpmath.iv.mpf, rhs: mpmath.iv.mpf) -> bool:
    """True when the two intervals intersect (consistent with equality)."""
    return not (lhs < rhs) and not (rhs < lhs)


# -- the Stirling term and the growth template ------------------------------

def stirling_S(x: mpmath.iv.mpf) -> mpmath.iv.mpf:
    """Interval of S(x) = sqrt(2 pi x) * (x/e)^x for certainly-positive x."""
    if not x > 0:
        raise DomainError(f"S(x) needs x > 0, got {format_interval(x)}")
    root = mpmath.iv.sqrt(2 * mpmath.iv.pi * x)
    power = mpmath.iv.exp(x * (mpmath.iv.log(x) - 1))  # (x/e)^x
    return root * power


def g_alpha(x: mpmath.iv.mpf, alpha: mpmath.iv.mpf) -> mpmath.iv.mpf:
    """Interval of the growth template g_a(x) = 4^x * x^(a - lg(x)/4).

    Integer x stays exact where possible: 4^k is a single mantissa bit,
    and x = 1 short-circuits to exactly 4 because 1^w = 1 for any w.
    The exactness matters: the growth bound on f is *tight* at n = 1.
    """
    if not x > 0:
        raise DomainError(f"g_a(x) needs x > 0, got {format_interval(x)}")
    xi = exact_int(x)
    if xi is not None:
        four_pow = mpmath.iv.mpf(4) ** xi
        if xi == 1:
            return four_pow
        log_x = mpmath.iv.log(mpmath.iv.mpf(xi))
    else:
        four_pow = mpmath.iv.exp(x * mpmath.iv.log(mpmath.iv.mpf(4)))
        log_x = mpmath.iv.log(x)
    lg_x = log_x / mpmath.iv.log(mpmath.iv.mpf(2))
    exponent = alpha - lg_x / 4
    return four_pow * mpmath.iv.exp(exponent * log_x)


def alpha_for_beta(beta: Fraction | int) -> mpmath.iv.mpf:
    """The exponent lg(beta) + 1/4 - lg(pi)/2 that makes the doubling
    identity beta * S(2x)/S(x)^2 * g_a(x) = g_a(2x) hold."""
    fr = Fraction(beta)
    if fr <= 0:
        raise InvalidArgs(f"beta must be positive, got {beta}")
    return _alpha_at(fr, mpmath.iv.prec)


@lru_cache(maxsize=64)
def _alpha_at(beta: Fraction, bits: int) -> mpmath.iv.mpf:
    # Keyed by the ambient precision `bits`: every sweep point asks again for
    # the same two alphas at the same few rungs.
    ln2 = mpmath.iv.log(mpmath.iv.mpf(2))
    lg_beta = mpmath.iv.log(rational(beta)) / ln2
    lg_pi = mpmath.iv.log(mpmath.iv.pi) / ln2
    return lg_beta + rational(Fraction(1, 4)) - lg_pi / 2


def _constant(value: Fraction) -> mpmath.iv.mpf:
    """Interval of a rational constant at the ambient precision."""
    return _constant_at(value, mpmath.iv.prec)


@lru_cache(maxsize=64)
def _constant_at(value: Fraction, bits: int) -> mpmath.iv.mpf:
    # Keyed by `bits` like _alpha_at: the sweeps reuse a few constants at
    # every point and every rung.
    return rational(value)


def alpha_low() -> mpmath.iv.mpf:
    """5/4 - lg(pi)/2, the exponent in the certified lower bound on f."""
    return alpha_for_beta(2)


def alpha_high() -> mpmath.iv.mpf:
    """lg(5) - 3/4 - lg(pi)/2, the exponent in the certified upper bound on f."""
    return alpha_for_beta(Fraction(5, 2))


# -- report plumbing --------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Outcome of one certified sweep."""

    inequality: str
    domain: str
    status: str
    points_checked: int
    worst_margin: str
    worst_point: str
    max_precision_bits: int
    failures: tuple[str, ...] = ()


# A judge evaluates one sweep point at the ambient precision and returns
# (verdict, rank, margin).  Among certified points the lowest rank is the
# worst one, and its margin is the one the report prints.
Judgement = tuple[str, object, "mpmath.iv.mpf"]
Judge = Callable[[], Judgement]


def _climb(judge: Judge, ladder: Sequence[int]) -> tuple[Judgement, int]:
    """Run judge up the ladder; return its first decided judgement (or the
    undecided one from the top rung) and the bits it used."""
    for bits in ladder:
        with precision(bits):
            judgement = judge()
        if judgement[0] != UNDECIDED:
            break
    return judgement, bits


def _sweep(
    inequality: str,
    domain: str,
    points: Sequence[tuple[str, Judge]],
    base_bits: int,
) -> BoundReport:
    """Decide every point up the ladder; violated outranks undecided."""
    ladder = precision_ladder(base_bits)
    status = CERTIFIED
    failures: list[str] = []
    worst: tuple[object, str, mpmath.iv.mpf] | None = None
    max_bits = ladder[0]
    for label, judge in points:
        (verdict, rank, margin), bits = _climb(judge, ladder)
        max_bits = max(max_bits, bits)
        if verdict == CERTIFIED:
            if worst is None or rank < worst[0]:
                worst = (rank, label, margin)
            continue
        failures.append(f"{label}: {verdict}")
        if status != VIOLATED:
            status = verdict
    return BoundReport(
        inequality=inequality,
        domain=domain,
        status=status,
        points_checked=len(points),
        worst_margin="" if worst is None else format_interval(worst[2]),
        worst_point="" if worst is None else worst[1],
        max_precision_bits=max_bits,
        failures=tuple(failures),
    )


def _le_judge(make: Callable[[], list[tuple[mpmath.iv.mpf, mpmath.iv.mpf]]]) -> Judge:
    """Judge of a point where every (lhs, rhs) pair from make() must satisfy
    lhs <= rhs.  Rank and margin come from the smallest rhs - lhs."""

    def judge() -> Judgement:
        pairs = make()
        verdicts = [compare_le(lhs, rhs) for lhs, rhs in pairs]
        margin = min((rhs - lhs for lhs, rhs in pairs), key=lambda m: endpoints(m)[0])
        verdict = (VIOLATED if VIOLATED in verdicts
                   else UNDECIDED if UNDECIDED in verdicts else CERTIFIED)
        return verdict, endpoints(margin)[0], margin

    return judge


# -- certified sweeps -------------------------------------------------------

def check_stirling_sandwich(
    max_n: int, base_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Certify e^(1/(12n+1)) S(n) <= n! <= e^(1/12n) S(n) for 1 <= n <= max_n."""
    if max_n < 0:
        raise InvalidArgs(f"max_n must be >= 0, got {max_n}")

    def pairs(n: int) -> list[tuple[mpmath.iv.mpf, mpmath.iv.mpf]]:
        s = stirling_S(mpmath.iv.mpf(n))
        fact = mpmath.iv.mpf(math.factorial(n))
        lower = mpmath.iv.exp(rational(Fraction(1, 12 * n + 1))) * s
        upper = mpmath.iv.exp(rational(Fraction(1, 12 * n))) * s
        return [(lower, fact), (fact, upper)]

    return _sweep(
        inequality="factorial_sandwich",
        domain=f"n in [1, {max_n}]",
        points=[(f"n={n}", _le_judge(partial(pairs, n))) for n in range(1, max_n + 1)],
        base_bits=base_bits,
    )


def check_lemma_sa(
    grid: Iterable[Fraction | int], base_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Certify S(x+1/2)^2 <= S(x)S(x+1) <= e^(1/2x) S(x+1/2)^2 on the grid."""
    xs = [Fraction(x) for x in grid]
    for x in xs:
        if x < 1:
            raise DomainError(f"grid point {x} < 1")

    def pairs(x: Fraction) -> list[tuple[mpmath.iv.mpf, mpmath.iv.mpf]]:
        s_mid = stirling_S(rational(x + Fraction(1, 2)))
        mid_sq = s_mid * s_mid
        product = stirling_S(rational(x)) * stirling_S(rational(x + 1))
        stretched = mpmath.iv.exp(rational(Fraction(1, 2) / x)) * mid_sq
        return [(mid_sq, product), (product, stretched)]

    return _sweep(
        inequality="stirling_midpoint_bracket",
        domain=_grid_domain(xs),
        points=[(f"x={x}", _le_judge(partial(pairs, x))) for x in xs],
        base_bits=base_bits,
    )


def check_lemma_ga(
    grid: Iterable[Fraction | int],
    alpha: Callable[[], mpmath.iv.mpf],
    base_bits: int = DEFAULT_PRECISION_BITS,
) -> BoundReport:
    """Certify e^(-1/2 sqrt x) (5/2) g_a(x+1/2) <= g_a(x) + g_a(x+1)
    <= e^(1/2 sqrt x) (5/2) g_a(x+1/2) at grid points with x >= 4^a.
    alpha, such as alpha_low, encloses a at the ambient precision."""
    xs = [Fraction(x) for x in grid]
    for x in xs:
        if not _in_ga_domain(x, alpha, base_bits):
            raise DomainError(f"grid point {x} is not certifiably >= 4^alpha")

    def pairs(x: Fraction) -> list[tuple[mpmath.iv.mpf, mpmath.iv.mpf]]:
        a = alpha()
        mid = _constant(Fraction(5, 2)) * g_alpha(rational(x + Fraction(1, 2)), a)
        total = g_alpha(rational(x), a) + g_alpha(rational(x + 1), a)
        wobble = _constant(Fraction(1, 2)) / enc_sqrt(rational(x))
        return [(mpmath.iv.exp(-wobble) * mid, total), (total, mpmath.iv.exp(wobble) * mid)]

    return _sweep(
        inequality="growth_template_bracket",
        domain=_grid_domain(xs),
        points=[(f"x={x}", _le_judge(partial(pairs, x))) for x in xs],
        base_bits=base_bits,
    )


def filter_ga_domain(
    grid: Iterable[Fraction | int],
    alpha: Callable[[], mpmath.iv.mpf],
    base_bits: int = DEFAULT_PRECISION_BITS,
) -> list[Fraction]:
    """Grid points certifiably >= 4^alpha (the bracket's domain)."""
    require_precision(base_bits)
    return [x for x in map(Fraction, grid) if _in_ga_domain(x, alpha, base_bits)]


@lru_cache(maxsize=2 * MAX_GRID_POINTS)
def _in_ga_domain(x: Fraction, alpha: Callable[[], mpmath.iv.mpf], base_bits: int) -> bool:
    # Cached: check_lemma_ga re-checks the points filter_ga_domain kept.
    judge = _le_judge(lambda: [
        (enc_pow(mpmath.iv.mpf(4), alpha()), rational(x))])
    (verdict, _, _), _ = _climb(judge, precision_ladder(base_bits))
    return verdict == CERTIFIED


def check_lemma_gaS(
    grid: Iterable[Fraction | int],
    beta: Fraction | int,
    base_bits: int = DEFAULT_PRECISION_BITS,
) -> BoundReport:
    """Certify the doubling identity beta S(2x)/S(x)^2 g_a(x) = g_a(2x)
    with a = lg(beta) + 1/4 - lg(pi)/2: at every grid point the two sides'
    intervals must overlap while both radii sit below IDENTITY_TIGHTNESS."""
    xs = [Fraction(x) for x in grid]
    for x in xs:
        if x <= 0:
            raise DomainError(f"grid point {x} <= 0")
    tight = (mpmath.mp.mpf(IDENTITY_TIGHTNESS.numerator)
             / mpmath.mp.mpf(IDENTITY_TIGHTNESS.denominator))

    def judge(x: Fraction) -> Judgement:
        a = alpha_for_beta(beta)
        s_x = stirling_S(rational(x))
        s_2x = stirling_S(rational(2 * x))
        lhs = _constant(Fraction(beta)) * s_2x / (s_x * s_x) * g_alpha(rational(x), a)
        rhs = g_alpha(rational(2 * x), a)
        (l_lo, l_hi), (r_lo, r_hi) = endpoints(lhs), endpoints(rhs)
        with mpmath.mp.workprec(mpmath.mp.prec + 10):
            radius = max(l_hi - l_lo, r_hi - r_lo) / 2
        verdict = (VIOLATED if not overlap(lhs, rhs)
                   else CERTIFIED if radius < tight else UNDECIDED)
        return verdict, -radius, rhs - lhs

    return _sweep(
        inequality=f"doubling_identity_beta_{beta}",
        domain=_grid_domain(xs),
        points=[(f"x={x}", partial(judge, x)) for x in xs],
        base_bits=base_bits,
    )


def check_fn_bounds(max_n: int, base_bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
    """Certify 0.195 g_al(n) <= f(n) <= (1/4) g_ah(n) for 1 <= n <= max_n,
    plus f(n) <= (1/4) g_al(n) whenever n is a power of two."""
    if max_n < 1:
        raise InvalidArgs(f"max_n must be >= 1, got {max_n}")
    lengths.f(max_n)  # warm the exact table before timing-sensitive sweeps

    def pairs(n: int) -> list[tuple[mpmath.iv.mpf, mpmath.iv.mpf]]:
        x = mpmath.iv.mpf(n)
        exact = mpmath.iv.mpf(lengths.f(n))
        quarter = _constant(Fraction(1, 4))
        low_template = g_alpha(x, alpha_low())
        lower = _constant(Fraction(195, 1000)) * low_template
        upper = quarter * g_alpha(x, alpha_high())
        checks = [(lower, exact), (exact, upper)]
        if n & (n - 1) == 0:  # power of two
            checks.append((exact, quarter * low_template))
        return checks

    return _sweep(
        inequality="fn_growth_bounds",
        domain=f"n in [1, {max_n}]",
        points=[(f"n={n}", _le_judge(partial(pairs, n))) for n in range(1, max_n + 1)],
        base_bits=base_bits,
    )


@dataclass(frozen=True)
class EstimateRow:
    """One row of the power-of-two closed-form comparison."""

    m: int
    n: int
    f_exact: int
    estimate: mpmath.iv.mpf
    ratio: mpmath.iv.mpf
    ln_ratio: mpmath.iv.mpf
    anomalous: bool


def estimate_power_of_two(
    m_max: int, base_bits: int = DEFAULT_PRECISION_BITS
) -> list[EstimateRow]:
    """Compare exact f(2^m) with 4^(2^m) e^-1 pi^((1-m)/2) 2^(-(m^2-5m+6)/4).

    The closed form is only an asymptotic sketch, so rows carry ratios and
    log-ratios instead of a pass/fail.  A row is flagged anomalous when
    |ln ratio| shrinks after having grown, which would be out of character
    for a smooth drift.
    """
    if not 0 <= m_max <= 10:
        raise InvalidArgs(f"m_max must be in [0, 10], got {m_max}")
    require_precision(base_bits)
    rows: list[EstimateRow] = []
    previous_abs = None
    with precision(base_bits):
        for m in range(1, m_max + 1):
            n = 2**m
            exact = lengths.f(n)
            estimate = (
                mpmath.iv.mpf(4) ** n
                * mpmath.iv.exp(-1)
                * enc_pow(+mpmath.iv.pi, Fraction(1 - m, 2))
                * enc_pow(mpmath.iv.mpf(2), Fraction(-(m * m - 5 * m + 6), 4))
            )
            ratio = mpmath.iv.mpf(exact) / estimate
            ln_ratio = enc_log(ratio)
            lo, hi = endpoints(ln_ratio)
            abs_mid = abs((lo + hi) / 2)
            anomalous = previous_abs is not None and abs_mid < previous_abs
            previous_abs = abs_mid
            rows.append(EstimateRow(
                m=m,
                n=n,
                f_exact=exact,
                estimate=estimate,
                ratio=ratio,
                ln_ratio=ln_ratio,
                anomalous=anomalous,
            ))
    return rows


def default_grid(
    start: Fraction = Fraction(1),
    stop: Fraction = Fraction(100),
    step: Fraction = Fraction(1, 4),
) -> list[Fraction]:
    """The grid start, start + step, ... <= stop used by the analytic sweeps;
    the default is the quarter-step grid on [1, 100]."""
    return [Fraction(start) + i * step for i in range(grid_size(start, stop, step))]


def grid_size(start: Fraction, stop: Fraction, step: Fraction) -> int:
    """Number of points of default_grid(start, stop, step), counted without
    building them; refuses empty steps, reversed ranges and grids above
    MAX_GRID_POINTS."""
    if step <= 0 or stop < start:
        raise InvalidArgs("grid needs step > 0 and stop >= start")
    count = (stop - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise InvalidArgs(
            f"grid has {count} points, more than the {MAX_GRID_POINTS} allowed")
    return count


def _grid_domain(xs: Sequence[Fraction]) -> str:
    if not xs:
        return "empty grid"
    return f"x in [{xs[0]}, {xs[-1]}], {len(xs)} points"
