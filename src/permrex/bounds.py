"""Certified real-number checks for the growth of f(n).

Every real value is an mpmath interval (`mpmath.iv.mpf`): a closed
interval guaranteed to contain the exact real, on which every operation
rounds outward.  Rationals enter through `rational`, integers as
`mpmath.iv.mpf(n)`, and an interval input x = [a, b] as
`mpmath.iv.mpf([a, b])`.  mpmath's
comparisons on intervals are three-valued (True, False, or None when
the intervals overlap), so a check can come back certified, violated,
or undecided, and undecided answers are retried up the precision ladder
`PRECISION_LADDER` (200 bits, doubling to a 2000-bit ceiling) rather than
glossed over.  Every n of the n-sweeps the CLI accepts, and every point of
the default grid, decides at the first rung; grid points past about 10^20
climb.

Every sweep runs through one ladder: `_sweep` feeds each (label, judge)
point to `_climb`, which re-runs the judge one rung higher until it
decides, and the report keeps the worst certified point.  The sandwich,
bracket and growth-bound checks state only their lhs <= rhs pairs, and
`_n_sweep` or `_grid_sweep` makes each n or x a point of one judge,
`_le_judge`.  The bracket domain x >= 4^alpha climbs on `compare_le`
alone, with no margin.  Every sweep runs in the calling process.

A value here depends on its arguments and on the ambient precision
`mpmath.iv.prec`, so one helper, `_per_precision`, memoizes on both, for
one of two lifetimes:

  * the process: the constants, which are ln 2 and ln 4, the rational
    constants, the integers 1 and 4, 2 pi, the alpha of a beta and
    4^alpha, once per rung each;
  * one check call: everything else.  A Stirling bracket memoizes S,
    since a grid point's arguments are later points' arguments.  One
    `check_lemma_ga` call memoizes the alpha-free parts of g_a (x, 4^x,
    ln x and lg(x)/4) at the arguments x, x + 1/2, x + 1 of its grid
    points and the wobble factors e^(-/+ 1/(2 sqrt x)), which all its
    alphas share, and g_a for each alpha's sweep.

A memoized interval is the one a fresh evaluation at that precision
gives, so no verdict, margin or worst point moves.  The n-sweeps keep no
memo.  The growth-bound sweep reads exact f(n) from `lengths.f_values`,
which keeps f only up to ceil(max_n/2), and evaluates the alpha-free
parts at n once for both templates; the factorial
sandwich carries n! from n - 1 as an exact integer, held by the one point
being judged.  No interval operation is reordered or re-associated, so
every enclosure is the one a direct evaluation gives.  Each report's
`seconds` is the time its check took.

The doubling identity is not sampled but proved: `permrex.doubling`
builds its log gap as a formal polynomial, which cancels to exactly zero
and so holds for every x > 0.  A gap that does not cancel goes up the
ladder one coefficient at a time, and is violated or undecided, never
certified.  The factorial sandwich is proved too, for every n >= 1, by
Robbins's two rational inequalities in n on three named premises
(`SANDWICH_PREMISES`), which `doubling.nonnegative_from` decides exactly;
its n-sweep is only a cross-check, which the CLI runs on
`SANDWICH_CROSS_CHECK_N` points.

The checks certify, against exact integer f(n):

  * the factorial sandwich  e^(1/(12n+1)) S(n) <= n! <= e^(1/12n) S(n)
    for the Stirling term S(x) = sqrt(2 pi x) (x/e)^x, at every n >= 1;
  * bracketing of S(x)S(x+1) by S(x+1/2)^2;
  * bracketing of g_a(x) + g_a(x+1) by (5/2) g_a(x+1/2), where
    g_a(x) = 4^x x^(a - lg(x)/4) is the growth template;
  * the doubling identity  b S(2x)/S(x)^2 g_a(x) = g_a(2x)  for
    a = lg(b) + 1/4 - lg(pi)/2, at every x > 0;
  * the two-sided growth bound 0.195 g_al(n) <= f(n) <= (1/4) g_ah(n)
    with al = 5/4 - lg(pi)/2 and ah = lg(5) - 3/4 - lg(pi)/2, plus the
    sharper f(n) <= (1/4) g_al(n) at powers of two.

The n = 1 upper bound holds with exact equality, so g_alpha keeps
integer inputs on an exact path (4^k is one mantissa bit; 1^w is [1,1])
and comparisons accept touching intervals for <=.

The CLI registers this module to load on first use, so only its `bounds`
and `estimate` commands run it; like every module, it imports what it
uses.  The CLI's parser prints `MAX_GRID_POINTS`, so it is defined in
`lengths` and read from there.
"""

from __future__ import annotations

import operator
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import mpmath

from . import doubling, lengths
from .errors import DomainError, InvalidArgs
from .lengths import MAX_GRID_POINTS


# The rungs, in bits, that every sweep climbs; `estimate_power_of_two` works
# at the first.  Read at call time.
PRECISION_LADDER = (200, 400, 800, 1600, 2000)
MAX_PRECISION_BITS = PRECISION_LADDER[-1]
# The largest --max-n the CLI accepts.  It bounds the one long n-sweep,
# f(n)'s, which takes 3.9-4.6 s at this n, and the whole command 4.2-4.9 s
# (Python 3.11.7, pure-Python mpmath, a shared 2-CPU machine); the factorial
# sandwich is proved for every n.
MAX_SWEEP_N = 16_384
# The largest m of estimate_power_of_two, and the CLI's largest --max-m.
MAX_ESTIMATE_M = 10
# The largest grid point the CLI accepts: the largest power of ten at which
# the three grid brackets all certify at PRECISION_LADDER[-2] bits or less,
# so the last rung is to spare.  The Stirling bracket's relative margin
# shrinks like 1/(4x) while its enclosures widen with x: it takes 800 bits
# at 10**100, 2000 at 10**239, and no rung decides it at 10**300.
MAX_GRID_X = 10**238

CERTIFIED = "certified"
UNDECIDED = "undecided"
VIOLATED = "violated"


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


def format_interval(x: mpmath.iv.mpf) -> str:
    digits = 12  # significant digits per endpoint
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


# -- the Stirling term and the growth template ------------------------------

def stirling_S(x: mpmath.iv.mpf) -> mpmath.iv.mpf:
    """Interval of S(x) = sqrt(2 pi x) * (x/e)^x for certainly-positive x."""
    if not x > 0:
        raise DomainError(f"S(x) needs x > 0, got {format_interval(x)}")
    root = mpmath.iv.sqrt(_two_pi() * x)
    power = mpmath.iv.exp(x * (mpmath.iv.log(x) - _integer(1)))  # (x/e)^x
    return root * power


def g_alpha(x: mpmath.iv.mpf, alpha: mpmath.iv.mpf) -> mpmath.iv.mpf:
    """Interval of the growth template g_a(x) = 4^x * x^(a - lg(x)/4).

    Integer x stays exact where possible: 4^k is a single mantissa bit,
    and x = 1 short-circuits to exactly 4 because 1^w = 1 for any w.
    The exactness matters: the growth bound on f is *tight* at n = 1.
    """
    return _template_parts(x).at(alpha)


class _TemplateParts(NamedTuple):
    """The alpha-free parts of g_a at the interval x: 4^x, ln x and lg(x)/4.
    At x = 1, g_a(1) = 4 exactly and ln x is None."""

    x: mpmath.iv.mpf
    four_pow: mpmath.iv.mpf
    log_x: mpmath.iv.mpf | None
    lg_x_quarter: mpmath.iv.mpf | None

    def at(self, alpha: mpmath.iv.mpf) -> mpmath.iv.mpf:
        """g_a(x) for the interval alpha."""
        if self.log_x is None:
            return self.four_pow
        return self.four_pow * mpmath.iv.exp((alpha - self.lg_x_quarter) * self.log_x)


def _template_parts(x: mpmath.iv.mpf) -> _TemplateParts:
    if not x > 0:
        raise DomainError(f"g_a(x) needs x > 0, got {format_interval(x)}")
    xi = exact_int(x)
    if xi is not None:
        four_pow = _integer(4) ** xi
        if xi == 1:
            return _TemplateParts(x, four_pow, None, None)
    else:
        four_pow = mpmath.iv.exp(x * _log(4))
    log_x = mpmath.iv.log(x)
    return _TemplateParts(x, four_pow, log_x, log_x / _log(2) / _integer(4))


def alpha_for_beta(beta: Fraction | int) -> mpmath.iv.mpf:
    """The exponent lg(beta) + 1/4 - lg(pi)/2 that makes the doubling
    identity beta * S(2x)/S(x)^2 * g_a(x) = g_a(2x) hold."""
    fr = Fraction(beta)
    if fr <= 0:
        raise InvalidArgs(f"beta must be positive, got {beta}")
    return _alpha(fr)


def _per_precision(value: Callable) -> Callable:
    """value(*args), memoized on (mpmath.iv.prec, *args) while the returned
    function lives, in an lru_cache whose cache_info/cache_clear it shares."""
    memo = lru_cache(None)(lambda bits, *args: value(*args))

    def at(*args):
        return memo(mpmath.iv.prec, *args)

    at.cache_info, at.cache_clear = memo.cache_info, memo.cache_clear
    return at


_log = _per_precision(lambda value: mpmath.iv.log(mpmath.iv.mpf(value)))  # ln 2, ln 4
_constant = _per_precision(rational)
_integer = _per_precision(lambda value: mpmath.iv.mpf(value))  # 1, 4
_two_pi = _per_precision(lambda: 2 * mpmath.iv.pi)


@_per_precision
def _alpha(beta: Fraction) -> mpmath.iv.mpf:
    lg_beta = mpmath.iv.log(rational(beta)) / _log(2)
    lg_pi = mpmath.iv.log(mpmath.iv.pi) / _log(2)
    return lg_beta + rational(Fraction(1, 4)) - lg_pi / 2


def alpha_low() -> mpmath.iv.mpf:
    """5/4 - lg(pi)/2, the exponent in the certified lower bound on f."""
    return alpha_for_beta(2)


def alpha_high() -> mpmath.iv.mpf:
    """lg(5) - 3/4 - lg(pi)/2, the exponent in the certified upper bound on f."""
    return alpha_for_beta(Fraction(5, 2))


# -- report plumbing --------------------------------------------------------

class BoundReport(NamedTuple):
    """Outcome of one certified check, the seconds it took, and the named
    facts it assumes where it proves a claim for every n or x."""

    inequality: str
    domain: str
    status: str
    points_checked: int
    worst_margin: str
    worst_point: str
    max_precision_bits: int
    failures: tuple[str, ...] = ()
    seconds: float = 0.0
    premises: tuple[str, ...] = ()


def _timed(check: Callable[..., BoundReport]) -> Callable[..., BoundReport]:
    """check, with the seconds each call took in its report's `seconds`."""

    @wraps(check)
    def timed(*args, **kwargs) -> BoundReport:
        begun = time.monotonic()
        report = check(*args, **kwargs)
        return report._replace(seconds=round(time.monotonic() - begun, 3))

    return timed


# A judge evaluates one sweep point at the ambient precision and returns
# (verdict, margin).  The certified point whose margin has the lowest lower
# endpoint is the worst, and its margin is the one the report prints.
Judgement = tuple[str, "mpmath.iv.mpf"]
Judge = Callable[[], Judgement]
Pairs = list[tuple["mpmath.iv.mpf", "mpmath.iv.mpf"]]  # (lhs, rhs): lhs <= rhs


def _climb(judge: Judge, ladder: Sequence[int]) -> tuple[Judgement, int]:
    """Run judge up the ladder; return its first decided judgement (or the
    undecided one from the top rung) and the bits it used."""
    for bits in ladder:
        with precision(bits):
            judgement = judge()
        if judgement[0] != UNDECIDED:
            break
    return judgement, bits


def _sweep(inequality: str, domain: str, points: Iterable[tuple[str, Judge]]) -> BoundReport:
    """Decide every point, in order, up the ladder; violated outranks undecided."""
    status = CERTIFIED
    failures: list[str] = []
    worst: tuple[mpmath.mpf, str, mpmath.iv.mpf] | None = None  # (low, label, margin)
    max_bits = PRECISION_LADDER[0]
    checked = 0
    for checked, (label, judge) in enumerate(points, 1):
        (verdict, margin), bits = _climb(judge, PRECISION_LADDER)
        max_bits = max(max_bits, bits)
        if verdict == CERTIFIED:
            low = endpoints(margin)[0]
            if worst is None or low < worst[0]:
                worst = (low, label, margin)
            continue
        failures.append(f"{label}: {verdict}")
        if status != VIOLATED:
            status = verdict
    return BoundReport(
        inequality=inequality,
        domain=domain,
        status=status,
        points_checked=checked,
        worst_margin="" if worst is None else format_interval(worst[2]),
        worst_point="" if worst is None else worst[1],
        max_precision_bits=max_bits,
        failures=tuple(failures),
    )


def _le_judge(make: Callable[[], Pairs]) -> Judge:
    """Judge of a point where every (lhs, rhs) pair from make() must satisfy
    lhs <= rhs.  Its margin is the rhs - lhs with the lowest lower endpoint."""

    def judge() -> Judgement:
        pairs = make()
        verdicts = [compare_le(lhs, rhs) for lhs, rhs in pairs]
        margin = min((rhs - lhs for lhs, rhs in pairs), key=lambda m: endpoints(m)[0])
        verdict = (VIOLATED if VIOLATED in verdicts
                   else UNDECIDED if UNDECIDED in verdicts else CERTIFIED)
        return verdict, margin

    return judge


def _n_sweep(inequality: str, max_n: int, values: Iterable[int],
             pairs: Callable[[int, int], Pairs]) -> BoundReport:
    """The sweep of n = 1, ..., max_n, each judged on pairs(n, v) for the
    n-th value v of the stream `values`."""
    points = ((f"n={n}", _le_judge(partial(pairs, n, value)))
              for n, value in enumerate(values, 1))
    return _sweep(inequality, f"n in [1, {max_n}]", points)


def _grid_sweep(inequality: str, xs: Sequence[Fraction],
                pairs: Callable[[Fraction], Pairs]) -> BoundReport:
    """The sweep of the grid points xs, in order, each judged on pairs(x)."""
    points = [(f"x={x}", _le_judge(partial(pairs, x))) for x in xs]
    return _sweep(inequality, _grid_domain(xs), points)


# -- certified sweeps -------------------------------------------------------

# The exponent denominators of the factorial sandwich
# e^(1/sandwich_lower(n)) S(n) <= n! <= e^(1/sandwich_upper(n)) S(n): read at
# each integer n by the cross-check's interval pairs, and at the formal n,
# `doubling.Formal.atom("n")`, by the proof.
def sandwich_lower(n: int | doubling.Formal) -> int | doubling.Formal:
    return 12 * n + 1


def sandwich_upper(n: int | doubling.Formal) -> int | doubling.Formal:
    return 12 * n


# What Robbins's proof of the sandwich ("A remark on Stirling's formula",
# Amer. Math. Monthly 62, 1955) takes as known; `_sandwich_proof` checks the
# rest exactly.
SANDWICH_PREMISES = (
    "artanh series: d_n - d_(n+1) = sum over k >= 1 of t^(2k)/(2k+1), "
    "where d_n = ln n! - (n + 1/2) ln n + n and t = 1/(2n+1)",
    "3 <= 2k+1 <= 3^k for every k >= 1",
    "Stirling's limit: d_n -> ln sqrt(2 pi)",
)
# The n-range the CLI cross-checks the proved sandwich on.  The proof covers
# every n, so the sweep only confirms that the interval pairs and the proof
# read the same denominators, and 64 points do that in about 10 ms.
SANDWICH_CROSS_CHECK_N = 64


def _sandwich_proof() -> list[str]:
    """The steps of Robbins's proof that the exact kernel does not certify
    for every n >= 1: none, when the sandwich holds for every n >= 1 on
    `SANDWICH_PREMISES`.

    Bound the series' terms t^(2k)/(2k+1) by t^(2k)/3^k below and t^(2k)/3
    above and sum: d_n - d_(n+1) lies between 1/(3(2n+1)^2 - 1) =
    1/(12n^2+12n+2) and 1/(3(2n+1)^2 - 3) = 1/(12n(n+1)).  So if, with
    U = sandwich_upper and L = sandwich_lower,
      (i)  1/(12n(n+1)) <= 1/U(n) - 1/U(n+1) and
      (ii) 1/(12n^2+12n+2) >= 1/L(n) - 1/L(n+1),
    then d_n - 1/U(n) increases and d_n - 1/L(n) decreases in n.  Where U
    and L are >= 1 from n = 1 on and of degree >= 1, 1/U(n) and 1/L(n) tend
    to 0, so both tend to ln sqrt(2 pi) and d_n - 1/U(n) <= ln sqrt(2 pi) <=
    d_n - 1/L(n); as n!/S(n) = e^(d_n - ln sqrt(2 pi)), that is the
    sandwich.  Each step is cross-multiplied over its positive denominators
    into p(n) >= 0 and decided by `doubling.nonnegative_from`."""
    n = doubling.Formal.atom("n")
    odd_sq = (2 * n + 1) * (2 * n + 1)
    low_sum, high_sum = 3 * odd_sq - 1, 3 * odd_sq - 3
    upper, upper_next = sandwich_upper(n), sandwich_upper(n + 1)
    lower, lower_next = sandwich_lower(n), sandwich_lower(n + 1)
    steps = [
        ("(i) 1/(12n(n+1)) <= 1/sandwich_upper(n) - 1/sandwich_upper(n+1)",
         upper, high_sum * (upper_next - upper) - upper * upper_next),
        ("(ii) 1/(12n^2+12n+2) >= 1/sandwich_lower(n) - 1/sandwich_lower(n+1)",
         lower, lower * lower_next - low_sum * (lower_next - lower)),
    ]
    return [
        f"step {step}: not proved for every n >= 1" for step, denominator, p in steps
        if not (max(doubling.in_n(denominator), default=0) >= 1
                and doubling.nonnegative_from(denominator - 1, 1)
                and doubling.nonnegative_from(p, 1))
    ]


@_timed
def check_stirling_sandwich(max_n: int) -> BoundReport:
    """Prove e^(1/(12n+1)) S(n) <= n! <= e^(1/12n) S(n) for every n >= 1 on
    `SANDWICH_PREMISES` (`_sandwich_proof`), and cross-check it by interval
    sweep at 1 <= n <= max_n.  Certified only when both proof steps and every
    swept point are; a step not proved makes it undecided and a violated
    point violated."""
    if max_n < 0:
        raise InvalidArgs(f"max_n must be >= 0, got {max_n}")
    unproved = _sandwich_proof()

    def pairs(n: int, factorial: int) -> Pairs:
        s = stirling_S(mpmath.iv.mpf(n))
        fact = mpmath.iv.mpf(factorial)
        lower = mpmath.iv.exp(_integer(1) / mpmath.iv.mpf(sandwich_lower(n))) * s
        upper = mpmath.iv.exp(_integer(1) / mpmath.iv.mpf(sandwich_upper(n))) * s
        return [(lower, fact), (fact, upper)]

    # n! is carried from n - 1.
    factorials = accumulate(range(1, max_n + 1), operator.mul)
    swept = _n_sweep("factorial_sandwich", max_n, factorials, pairs)
    return swept._replace(
        domain="n >= 1",
        status=UNDECIDED if unproved and swept.status == CERTIFIED else swept.status,
        failures=(*unproved, *swept.failures),
        premises=SANDWICH_PREMISES,
    )


@_timed
def check_lemma_sa(grid: Iterable[Fraction | int]) -> BoundReport:
    """Certify S(x+1/2)^2 <= S(x)S(x+1) <= e^(1/2x) S(x+1/2)^2 on the grid."""
    xs = [Fraction(x) for x in grid]
    for x in xs:
        if x < 1:
            raise DomainError(f"grid point {x} < 1")

    S = _per_precision(lambda x: stirling_S(rational(x)))

    def pairs(x: Fraction) -> Pairs:
        s_mid = S(x + Fraction(1, 2))
        mid_sq = s_mid * s_mid
        product = S(x) * S(x + 1)
        stretched = mpmath.iv.exp(rational(Fraction(1, 2) / x)) * mid_sq
        return [(mid_sq, product), (product, stretched)]

    return _grid_sweep("stirling_midpoint_bracket", xs, pairs)


def check_lemma_ga(
    grid: Iterable[Fraction | int],
    alphas: Iterable[Callable[[], mpmath.iv.mpf]],
) -> list[BoundReport]:
    """Certify e^(-1/2 sqrt x) (5/2) g_a(x+1/2) <= g_a(x) + g_a(x+1)
    <= e^(1/2 sqrt x) (5/2) g_a(x+1/2), one report per alpha, in order; an
    alpha, such as alpha_low, encloses a at the ambient precision.  Each
    sweeps the grid points that `filter_ga_domain` certifies are >= 4^a, and
    leaves the others out.  The alphas share the alpha-free parts of g_a and
    the wobble factors, which go when the call returns."""
    grid = [Fraction(x) for x in grid]
    parts = _per_precision(lambda x: _template_parts(rational(x)))

    @_per_precision
    def wobble(x: Fraction) -> tuple[mpmath.iv.mpf, mpmath.iv.mpf]:
        exponent = _constant(Fraction(1, 2)) / enc_sqrt(parts(x).x)
        return mpmath.iv.exp(-exponent), mpmath.iv.exp(exponent)

    @_timed
    def bracket(alpha: Callable[[], mpmath.iv.mpf]) -> BoundReport:
        xs = filter_ga_domain(grid, alpha)
        g = _per_precision(lambda x: parts(x).at(alpha()))

        def pairs(x: Fraction) -> Pairs:
            mid = _constant(Fraction(5, 2)) * g(x + Fraction(1, 2))
            total = g(x) + g(x + 1)
            shrink, stretch = wobble(x)
            return [(shrink * mid, total), (total, stretch * mid)]

        return _grid_sweep("growth_template_bracket", xs, pairs)

    return [bracket(alpha) for alpha in alphas]


def filter_ga_domain(
    grid: Iterable[Fraction | int], alpha: Callable[[], mpmath.iv.mpf]
) -> list[Fraction]:
    """The grid points certifiably >= 4^alpha, in grid order: those that
    `check_lemma_ga` sweeps for alpha.  One undecided at the ceiling is out."""
    return [x for x in map(Fraction, grid) if _in_ga_domain(x, alpha)]


def _in_ga_domain(x: Fraction, alpha: Callable[[], mpmath.iv.mpf]) -> bool:
    (verdict, _), _ = _climb(
        lambda: (compare_le(_four_pow(alpha), rational(x)), None), PRECISION_LADDER)
    return verdict == CERTIFIED


_four_pow = _per_precision(lambda alpha: enc_pow(mpmath.iv.mpf(4), alpha()))


@_timed
def check_lemma_gaS(beta: Fraction | int) -> BoundReport:
    """Prove the doubling identity beta S(2x)/S(x)^2 g_a(x) = g_a(2x) with
    a = lg(beta) + 1/4 - lg(pi)/2 for every x > 0, by exact cancellation of
    its formal log gap (see `permrex.doubling`)."""
    return _identity_report(f"doubling_identity_beta_{beta}", doubling.gap(beta, beta))


def _identity_report(inequality: str, gap: doubling.Formal) -> BoundReport:
    """Certified for x > 0 when the formal log gap is zero.  Otherwise each
    coefficient of an (x, ln x) monomial climbs the ladder: violated once it
    certifiably excludes 0, undecided while it does not."""
    if not gap:
        return BoundReport(inequality=inequality, domain="x > 0", status=CERTIFIED,
                           points_checked=0, worst_margin="0", worst_point="symbolic",
                           max_precision_bits=0)

    def judge(coefficient: doubling.Formal) -> Judgement:
        value = coefficient.evaluate()
        return (UNDECIDED if 0 in value else VIOLATED), value

    return _sweep(
        inequality=inequality,
        domain="x > 0",
        points=[(f"coefficient of {name}", partial(judge, c))
                for name, c in gap.coefficients_in_x()],
    )


@_timed
def check_fn_bounds(max_n: int) -> BoundReport:
    """Certify 0.195 g_al(n) <= f(n) <= (1/4) g_ah(n) for 1 <= n <= max_n,
    plus f(n) <= (1/4) g_al(n) whenever n is a power of two."""
    if max_n < 1:
        raise InvalidArgs(f"max_n must be >= 1, got {max_n}")

    def pairs(n: int, f_n: int) -> Pairs:
        parts = _template_parts(mpmath.iv.mpf(n))  # shared by both templates
        exact = mpmath.iv.mpf(f_n)
        quarter = _constant(Fraction(1, 4))
        low_template = parts.at(alpha_low())
        lower = _constant(Fraction(195, 1000)) * low_template
        upper = quarter * parts.at(alpha_high())
        checks = [(lower, exact), (exact, upper)]
        if n & (n - 1) == 0:  # power of two
            checks.append((exact, quarter * low_template))
        return checks

    # f(n) comes from a stream that keeps f only up to ceil(max_n/2); a
    # larger one is held by the one point being judged.
    return _n_sweep("fn_growth_bounds", max_n, lengths.f_values(max_n), pairs)


class EstimateRow(NamedTuple):
    """One row of the power-of-two closed-form comparison."""

    m: int
    n: int
    f: int
    estimate: mpmath.iv.mpf
    ratio: mpmath.iv.mpf
    ln_ratio: mpmath.iv.mpf
    anomalous: bool


def estimate_power_of_two(m_max: int) -> list[EstimateRow]:
    """Compare exact f(2^m) with 4^(2^m) e^-1 pi^((1-m)/2) 2^(-(m^2-5m+6)/4),
    at the ladder's first rung.

    The closed form is only an asymptotic sketch, so rows carry ratios and
    log-ratios instead of a pass/fail.  A row is flagged anomalous when its
    |ln ratio|, taken at the midpoint of its enclosure, is below the previous
    row's.
    """
    if not 0 <= m_max <= MAX_ESTIMATE_M:
        raise InvalidArgs(f"m_max must be in [0, {MAX_ESTIMATE_M}], got {m_max}")
    rows: list[EstimateRow] = []
    previous_abs = None
    with precision(PRECISION_LADDER[0]):
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
                f=exact,
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
