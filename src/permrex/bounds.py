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

Every sweep runs through one ladder: `_sweep` feeds each (label, judge)
point to `_climb`, which re-runs the judge one rung higher until it
decides, and the report keeps the worst certified point.  The sandwich,
bracket and growth-bound checks state only their lhs <= rhs pairs, and
`_n_sweep` or `_grid_sweep` makes each n or x a point of one judge,
`_le_judge`.  The bracket domain x >= 4^alpha climbs on `compare_le`
alone, with no margin.

`_sweep` cuts its points into one contiguous run per CPU in the process's
affinity mask, if each run gets at least `_MIN_RUN_POINTS` points, and
`_judge_runs` judges the first run here and forks a worker for each other
run, if any.  A worker skips the points before its run in its own copy of
the point stream, so an n-sweep holds one n! or f(n) per process, and
sends back a summary of its run through a pipe as `marshal` data.  The
summaries are merged in point order, so a report is the one a single
process gives, `seconds` apart.  Where the platform has no affinity mask,
as on macOS, and while other threads run, every sweep is one run.

A value here depends on its arguments and on the ambient precision
`mpmath.iv.prec`, so one helper, `_per_precision`, memoizes on both, for
one of two lifetimes:

  * the process: the constants, which are ln 2 and ln 4, the rational
    constants, the integers 1 and 4, 2 pi, the alpha of a beta and
    4^alpha, once per rung each in each process: a worker computes those
    its run reads that no sweep before its fork did;
  * one run of one check call: everything else.  A Stirling bracket
    memoizes S, since a grid point's arguments are later points'
    arguments.  One `check_lemma_ga` call memoizes the alpha-free parts of
    g_a (x, 4^x, ln x and lg(x)/4) at the arguments x, x + 1/2, x + 1 of
    its grid points and the wobble factors e^(-/+ 1/(2 sqrt x)), which all
    its alphas share, and g_a for each alpha's sweep.  A worker's memo
    lives for its run: an argument at a run boundary is evaluated by both
    neighbouring workers, and an alpha's worker evaluates again the parts
    that the previous alpha's worker evaluated for the same points.

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
certified.

The checks certify, against exact integer f(n):

  * the factorial sandwich  e^(1/(12n+1)) S(n) <= n! <= e^(1/12n) S(n)
    for the Stirling term S(x) = sqrt(2 pi x) (x/e)^x;
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
uses.  The CLI's parser prints `DEFAULT_PRECISION_BITS` and
`MAX_GRID_POINTS`, so both are defined in `lengths` and read from there.
"""

from __future__ import annotations

import marshal
import operator
import os
import signal
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial, wraps
from itertools import accumulate, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import mpmath

from . import doubling, lengths
from .errors import DomainError, InvalidArgs
from .lengths import DEFAULT_PRECISION_BITS, MAX_GRID_POINTS


MAX_PRECISION_BITS = 2000
# The two n-sweeps take 6.2-8.3 s there on one CPU and 4.0-6.9 s split over
# two (Python 3.11.7, pure-Python mpmath, a shared 2-CPU machine).
MAX_SWEEP_N = 16_384

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
    """Outcome of one certified sweep, and the seconds its check took."""

    inequality: str
    domain: str
    status: str
    points_checked: int
    worst_margin: str
    worst_point: str
    max_precision_bits: int
    failures: tuple[str, ...] = ()
    seconds: float = 0.0


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


def _sweep(
    inequality: str,
    domain: str,
    points: Iterable[tuple[str, Judge]],
    base_bits: int,
    count: int | None = None,
) -> BoundReport:
    """Decide every point, in order, up the ladder; violated outranks undecided.

    `count` is the number of points, if `points` has no len.  They are cut
    into one contiguous run per CPU, each of at least `_MIN_RUN_POINTS`
    points, and the runs are merged in point order, so the report is the
    one a single process gives."""
    ladder = precision_ladder(base_bits)
    judged = _judge_runs(iter(points), _runs(len(points) if count is None else count), ladder)
    worst = None
    for run in judged:
        if run.worst is not None and (
                worst is None or mpmath.libmp.mpf_lt(run.worst[0], worst[0])):
            worst = run.worst
    statuses = {run.status for run in judged}
    return BoundReport(
        inequality=inequality,
        domain=domain,
        status=next(s for s in (VIOLATED, UNDECIDED, CERTIFIED) if s in statuses),
        points_checked=sum(run.checked for run in judged),
        worst_margin="" if worst is None else worst[2],
        worst_point="" if worst is None else worst[1],
        max_precision_bits=max(run.max_bits for run in judged),
        failures=tuple(failure for run in judged for failure in run.failures),
    )


class _Run(NamedTuple):
    """One contiguous run of a sweep's points, judged.  Its fields are plain
    ints, strs, lists and tuples, so a worker sends it back with marshal.
    `worst` is the certified point whose margin has the lowest lower
    endpoint, the first such in the run: that endpoint as its raw mpf tuple,
    the point's label and the margin as the report prints it."""

    checked: int
    max_bits: int
    status: str
    failures: list[str]
    worst: tuple[tuple[int, int, int, int], str, str] | None


def _judge_run(points: Iterable[tuple[str, Judge]], ladder: Sequence[int]) -> _Run:
    """Decide every point, in order, up the ladder."""
    status = CERTIFIED
    failures: list[str] = []
    worst: tuple[mpmath.mpf, str, mpmath.iv.mpf] | None = None
    max_bits = ladder[0]
    checked = 0
    for checked, (label, judge) in enumerate(points, 1):
        (verdict, margin), bits = _climb(judge, ladder)
        max_bits = max(max_bits, bits)
        if verdict == CERTIFIED:
            low = endpoints(margin)[0]
            if worst is None or low < worst[0]:
                worst = (low, label, margin)
            continue
        failures.append(f"{label}: {verdict}")
        if status != VIOLATED:
            status = verdict
    if worst is not None:
        sign, man, exp, bc = worst[0]._mpf_
        worst = ((sign, int(man), exp, bc), worst[1], format_interval(worst[2]))
    return _Run(checked, max_bits, status, failures, worst)


# A sweep forks a worker only if each run gets at least this many points: a
# fork and its reap cost a few milliseconds, a point about a tenth of one.
_MIN_RUN_POINTS = 64


def _runs(count: int) -> list[range]:
    """The sweep's point indices cut into contiguous runs of nearly equal
    length, one per CPU in this process's affinity mask, each of at least
    `_MIN_RUN_POINTS` points.  One run where the platform has no mask, and
    while other threads run, as a fork copies only the thread that calls it."""
    cpus = 1
    if hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        cpus = len(os.sched_getaffinity(0))
    parts = max(1, min(cpus, count // _MIN_RUN_POINTS))
    cuts = [count * k // parts for k in range(parts + 1)]
    return [range(start, stop) for start, stop in zip(cuts, cuts[1:])]


def _judge_runs(
    points: Iterator[tuple[str, Judge]], runs: list[range], ladder: Sequence[int]
) -> list[_Run]:
    """Judge the first run here and each other run in a forked worker.  A run
    whose worker does not deliver is judged here, so an exception is the one
    a single process raises.  Every worker is reaped before this returns or
    raises."""
    first, *others = runs
    workers: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        pids = [_fork_run(points, run, ladder, workers) for run in others]
        judged = [_judge_run(islice(points, first.stop), ladder)]
        position = first.stop  # of the stream here
        for run, pid in zip(others, pids):
            summary = None if pid is None else _collect(pid, workers)
            if summary is None:
                summary = _judge_run(
                    islice(points, run.start - position, run.stop - position), ladder)
                position = run.stop
            judged.append(summary)
    finally:
        for pid, read_end in workers.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return judged


def _fork_run(
    points: Iterator[tuple[str, Judge]], run: range, ladder: Sequence[int],
    workers: dict[int, int],
) -> int | None:
    """Fork a worker that judges `run` and writes its `_Run` to a pipe;
    register it in `workers` and return its pid, or None if it cannot
    start.  The worker skips the points before `run` and computes every
    memo no sweep filled before the fork, the per-rung constants too.  It
    leaves by os._exit, so it runs no atexit handler and flushes no buffer
    it inherited."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            summary = _judge_run(islice(points, run.start, run.stop), ladder)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(tuple(summary)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    workers[pid] = read_end
    return pid


def _collect(pid: int, workers: dict[int, int]) -> _Run | None:
    """The `_Run` the worker `pid` sent, once it is reaped; None if it
    failed."""
    try:
        with open(workers.pop(pid), "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    return _Run(*marshal.loads(data))


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
             pairs: Callable[[int, int], Pairs], base_bits: int) -> BoundReport:
    """The sweep of n = 1, ..., max_n, each judged on pairs(n, v) for the
    n-th value v of the stream `values`."""
    points = ((f"n={n}", _le_judge(partial(pairs, n, value)))
              for n, value in enumerate(values, 1))
    return _sweep(inequality, f"n in [1, {max_n}]", points, base_bits, count=max_n)


def _grid_sweep(inequality: str, xs: Sequence[Fraction],
                pairs: Callable[[Fraction], Pairs], base_bits: int) -> BoundReport:
    """The sweep of the grid points xs, in order, each judged on pairs(x)."""
    points = [(f"x={x}", _le_judge(partial(pairs, x))) for x in xs]
    return _sweep(inequality, _grid_domain(xs), points, base_bits)


# -- certified sweeps -------------------------------------------------------

@_timed
def check_stirling_sandwich(
    max_n: int, base_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Certify e^(1/(12n+1)) S(n) <= n! <= e^(1/12n) S(n) for 1 <= n <= max_n."""
    if max_n < 0:
        raise InvalidArgs(f"max_n must be >= 0, got {max_n}")

    def pairs(n: int, factorial: int) -> Pairs:
        s = stirling_S(mpmath.iv.mpf(n))
        fact = mpmath.iv.mpf(factorial)
        lower = mpmath.iv.exp(_integer(1) / mpmath.iv.mpf(12 * n + 1)) * s
        upper = mpmath.iv.exp(_integer(1) / mpmath.iv.mpf(12 * n)) * s
        return [(lower, fact), (fact, upper)]

    # n! is carried from n - 1.
    factorials = accumulate(range(1, max_n + 1), operator.mul)
    return _n_sweep("factorial_sandwich", max_n, factorials, pairs, base_bits)


@_timed
def check_lemma_sa(
    grid: Iterable[Fraction | int], base_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
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

    return _grid_sweep("stirling_midpoint_bracket", xs, pairs, base_bits)


def check_lemma_ga(
    grid: Iterable[Fraction | int],
    alphas: Iterable[Callable[[], mpmath.iv.mpf]],
    base_bits: int = DEFAULT_PRECISION_BITS,
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
        xs = filter_ga_domain(grid, alpha, base_bits)
        g = _per_precision(lambda x: parts(x).at(alpha()))

        def pairs(x: Fraction) -> Pairs:
            mid = _constant(Fraction(5, 2)) * g(x + Fraction(1, 2))
            total = g(x) + g(x + 1)
            shrink, stretch = wobble(x)
            return [(shrink * mid, total), (total, stretch * mid)]

        return _grid_sweep("growth_template_bracket", xs, pairs, base_bits)

    return [bracket(alpha) for alpha in alphas]


def filter_ga_domain(
    grid: Iterable[Fraction | int],
    alpha: Callable[[], mpmath.iv.mpf],
    base_bits: int = DEFAULT_PRECISION_BITS,
) -> list[Fraction]:
    """The grid points certifiably >= 4^alpha, in grid order: those that
    `check_lemma_ga` sweeps for alpha.  One undecided at the ceiling is out."""
    ladder = precision_ladder(base_bits)
    return [x for x in map(Fraction, grid) if _in_ga_domain(x, alpha, ladder)]


def _in_ga_domain(x: Fraction, alpha: Callable[[], mpmath.iv.mpf], ladder: Sequence[int]) -> bool:
    (verdict, _), _ = _climb(lambda: (compare_le(_four_pow(alpha), rational(x)), None), ladder)
    return verdict == CERTIFIED


_four_pow = _per_precision(lambda alpha: enc_pow(mpmath.iv.mpf(4), alpha()))


@_timed
def check_lemma_gaS(
    beta: Fraction | int, base_bits: int = DEFAULT_PRECISION_BITS
) -> BoundReport:
    """Prove the doubling identity beta S(2x)/S(x)^2 g_a(x) = g_a(2x) with
    a = lg(beta) + 1/4 - lg(pi)/2 for every x > 0, by exact cancellation of
    its formal log gap (see `permrex.doubling`)."""
    return _identity_report(
        f"doubling_identity_beta_{beta}", doubling.gap(beta, beta), base_bits)


def _identity_report(inequality: str, gap: doubling.Formal, base_bits: int) -> BoundReport:
    """Certified for x > 0 when the formal log gap is zero.  Otherwise each
    coefficient of an (x, ln x) monomial climbs the ladder: violated once it
    certifiably excludes 0, undecided while it does not."""
    require_precision(base_bits)
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
        base_bits=base_bits,
    )


@_timed
def check_fn_bounds(max_n: int, base_bits: int = DEFAULT_PRECISION_BITS) -> BoundReport:
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
    return _n_sweep("fn_growth_bounds", max_n, lengths.f_values(max_n), pairs, base_bits)


class EstimateRow(NamedTuple):
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
