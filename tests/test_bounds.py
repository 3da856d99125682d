import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from mpmath import iv, mp

from permrex import bounds, doubling, lengths
from permrex.errors import DomainError, InvalidArgs

from conftest import LADDER_16

# Reference values computed once with plain high-precision floating point
# (mpmath.mp at 300 bits), a separate code path from the interval module.
S_1 = "0.9221370088957891168791517"
S_10 = "3598695.618741035921623176"
S_5_HALVES = "3.214946538651741991546137"
ALPHA_LOW = "0.4242519352638406009783604"
ALPHA_HIGH = "0.7461800301512029488486798"
G_2_ALPHA_LOW = "18.05406667352820118233854"
G_16_ALPHA_HIGH = "2124859229.178959420590747"
LN_RATIOS = {
    1: "-0.039720770839918",
    2: "-0.101611490646971",
    3: "-0.13278156959253",
    4: "-0.148396444196864",
    5: "-0.156207674116832",
    6: "-0.160113765217644",
    7: "-0.162066870350884",
    8: "-0.163043430367403",
}


def enclosed(x: iv.mpf, reference: str, tol="1e-20") -> bool:
    lo, hi = bounds.endpoints(x)
    ref = mp.mpf(reference)
    eps = mp.mpf(tol)
    return lo - eps <= ref <= hi + eps


def contains(x: iv.mpf, q: Fraction | int) -> bool:
    """Whether x holds the rational q; exact, as both endpoints are dyadic."""
    lo, hi = bounds.endpoints(x)
    if not (mp.isfinite(lo) and mp.isfinite(hi)):
        return False
    lo, hi = (Fraction(*map(int, mpmath.libmp.to_rational(e._mpf_))) for e in (lo, hi))
    return lo <= q <= hi


def overlap(lhs: iv.mpf, rhs: iv.mpf) -> bool:
    """True when the two intervals intersect (consistent with equality)."""
    return not (lhs < rhs) and not (rhs < lhs)


def test_precision_ladder():
    assert bounds.PRECISION_LADDER == (200, 400, 800, 1600, 2000)
    assert bounds.MAX_PRECISION_BITS == 2000


def test_precision_context_restores():
    before = iv.prec
    with bounds.precision(333):
        assert iv.prec == 333
    assert iv.prec == before


def test_enclosure_basics():
    with bounds.precision(200):
        five = iv.mpf(5)
        assert bounds.exact_int(five) == 5
        assert contains(five, 5)
        third = bounds.rational(Fraction(1, 3))
        assert bounds.exact_int(third) is None
        assert contains(third, Fraction(1, 3))
        assert not contains(third, Fraction(1, 2))
        lo, hi = bounds.endpoints(third)
        assert lo < hi
        assert contains(five + third, Fraction(16, 3))
        assert contains(five - third, Fraction(14, 3))
        assert contains(five * third, Fraction(5, 3))
        assert contains(five / third, 15)
        assert contains(1 + third, Fraction(4, 3))
        assert contains(-third, Fraction(-1, 3))


def test_enclosure_of_huge_integer_is_outward():
    with bounds.precision(64):
        import math

        big = math.factorial(100)
        enc = iv.mpf(big)
        assert contains(enc, big)
        lo, hi = bounds.endpoints(enc)
        assert lo < hi  # cannot be exact in 64 bits, must widen


def test_compare_le_three_values():
    with bounds.precision(200):
        one = iv.mpf(1)
        two = iv.mpf(2)
        third = bounds.rational(Fraction(1, 3))
        assert bounds.compare_le(one, two) == bounds.CERTIFIED
        assert bounds.compare_le(two, one) == bounds.VIOLATED
        assert bounds.compare_le(one, one) == bounds.CERTIFIED  # touching
        wide = third * 3  # encloses 1 but is not a point
        assert bounds.compare_le(wide, one) == bounds.UNDECIDED
        assert bounds.compare_le(one, wide) == bounds.UNDECIDED


def test_transcendental_wrappers():
    with bounds.precision(200):
        assert bounds.exact_int(iv.exp(0)) == 1
        assert bounds.exact_int(bounds.enc_log(iv.mpf(1))) == 0
        s2 = bounds.enc_sqrt(iv.mpf(2))
        assert contains(s2 * s2, 2)
        assert contains(+iv.pi, Fraction(355, 113)) is False
        with pytest.raises(DomainError):
            bounds.enc_log(iv.mpf(0))
        with pytest.raises(DomainError):
            bounds.enc_sqrt(iv.mpf(-1))


def test_enc_pow_integer_exponents_are_exact():
    with bounds.precision(200):
        two = iv.mpf(2)
        assert bounds.exact_int(bounds.enc_pow(two, 10)) == 1024
        assert contains(bounds.enc_pow(two, Fraction(-1, 1)), Fraction(1, 2))
        half = bounds.enc_pow(two, Fraction(1, 2))
        assert contains(half * half, 2)
        one = bounds.enc_pow(iv.mpf(1), Fraction(7, 3))
        assert bounds.exact_int(one) == 1


def test_stirling_term_reference_values():
    with bounds.precision(200):
        assert enclosed(bounds.stirling_S(iv.mpf(1)), S_1)
        assert enclosed(bounds.stirling_S(iv.mpf(10)), S_10)
        assert enclosed(bounds.stirling_S(bounds.rational(Fraction(5, 2))), S_5_HALVES)
        with pytest.raises(DomainError):
            bounds.stirling_S(iv.mpf(0))


def test_alpha_constants_reference_values():
    with bounds.precision(200):
        assert enclosed(bounds.alpha_low(), ALPHA_LOW)
        assert enclosed(bounds.alpha_high(), ALPHA_HIGH)
        assert enclosed(bounds.alpha_for_beta(2), ALPHA_LOW)
        assert enclosed(bounds.alpha_for_beta(Fraction(5, 2)), ALPHA_HIGH)
        with pytest.raises(InvalidArgs):
            bounds.alpha_for_beta(0)


def test_growth_template_reference_values():
    with bounds.precision(200):
        g1 = bounds.g_alpha(iv.mpf(1), bounds.alpha_low())
        assert bounds.exact_int(g1) == 4  # exact, the n = 1 bound is tight
        assert enclosed(bounds.g_alpha(iv.mpf(2), bounds.alpha_low()), G_2_ALPHA_LOW)
        assert enclosed(bounds.g_alpha(iv.mpf(16), bounds.alpha_high()), G_16_ALPHA_HIGH)
        with pytest.raises(DomainError):
            bounds.g_alpha(iv.mpf(0), bounds.alpha_low())


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 400), st.integers(0, 1))
def test_enclosures_nest_as_precision_grows(n, which):
    # The same expression evaluated at higher precision must stay inside
    # the coarser enclosure (soundness of outward rounding).
    def evaluate():
        x = iv.mpf(n)
        if which:
            return bounds.stirling_S(x)
        return bounds.g_alpha(x, bounds.alpha_low())

    with bounds.precision(80):
        coarse_lo, coarse_hi = bounds.endpoints(evaluate())
    with bounds.precision(320):
        fine_lo, fine_hi = bounds.endpoints(evaluate())
    assert coarse_lo <= fine_lo <= fine_hi <= coarse_hi


def test_check_stirling_sandwich_certifies():
    report = bounds.check_stirling_sandwich(100)
    assert report.status == bounds.CERTIFIED
    assert report.domain == "n >= 1"
    assert report.points_checked == 100
    assert report.failures == ()
    assert report.premises == bounds.SANDWICH_PREMISES
    assert len(report.premises) == 3


# A denominator patched to one that makes the sandwich false is refused by
# the proof and by the cross-check; 12n + 2 below is true but weaker, and
# still proved.  A constant 1000 below passes every cross-check point to 64
# (ln(n!/S(n)) > 1/(12n+1) >= 1/769 there) but does not tend to infinity, so
# only the proof refuses it.  12n - 30 meets step (i)'s inequality but is
# negative at n = 1 and 2, where the cross-multiplication does not hold.
@pytest.mark.parametrize("name, denominator, status, step", [
    ("sandwich_lower", lambda n: 12 * n, bounds.VIOLATED, "(ii)"),
    ("sandwich_upper", lambda n: 12 * n + 2, bounds.VIOLATED, "(i)"),
    ("sandwich_lower", lambda n: 12 * n + 2, bounds.CERTIFIED, None),
    ("sandwich_lower", lambda n: 1000, bounds.UNDECIDED, "(ii)"),
    ("sandwich_upper", lambda n: 12 * n - 30, bounds.VIOLATED, "(i)"),
], ids=["lower 12n", "upper 12n+2", "lower 12n+2", "lower 1000", "upper 12n-30"])
def test_check_stirling_sandwich_proof_reads_the_denominators(
        monkeypatch, name, denominator, status, step):
    monkeypatch.setattr(bounds, name, denominator)
    report = bounds.check_stirling_sandwich(bounds.SANDWICH_CROSS_CHECK_N)
    assert report.status == status
    unproved = [f.split()[1] for f in report.failures if f.startswith("step ")]
    assert unproved == ([] if step is None else [step])


def test_formal_takes_a_constant_on_the_left():
    n, lift = doubling.Formal.atom("n"), doubling.Formal.lift
    assert 1 + n == lift(1) + n
    assert 1 - n == lift(1) - n
    assert Fraction(1, 2) - n == lift(Fraction(1, 2)) - n
    assert doubling.in_n(Fraction(1, 2) - n) == {0: Fraction(1, 2), 1: -1}
    assert all(type(p) is doubling.Formal for p in (1 + n, 1 - n, Fraction(1, 2) - n))


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(coefficients=st.lists(_small_fractions, max_size=5), n0=st.integers(1, 5))
def test_nonnegative_from_certifies_only_nonnegative_polynomials(coefficients, n0):
    n = doubling.Formal.atom("n")
    p = doubling.Formal()
    for power, c in enumerate(coefficients):
        term = doubling.Formal.lift(c)
        for _ in range(power):
            term = term * n
        p = p + term
    assert doubling.in_n(p) == {k: c for k, c in enumerate(coefficients) if c}
    values = [sum(c * m**k for k, c in enumerate(coefficients)) for m in range(n0, n0 + 201)]
    if doubling.nonnegative_from(p, n0):
        assert min(values, default=0) >= 0
    if any(value < 0 for value in values):
        assert not doubling.nonnegative_from(p, n0)


@settings(max_examples=100, deadline=None)
@given(coefficients=st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6),
                             max_size=5),
       n0=st.integers(1, 5))
def test_nonnegative_from_certifies_nonnegative_coefficients_at_n0(coefficients, n0):
    # The test is exactly "no negative coefficient in powers of n - n0".
    shift = doubling.Formal.atom("n") - n0
    p, power = doubling.Formal(), doubling.Formal.lift(1)
    for c in coefficients:
        p, power = p + c * power, power * shift
    assert doubling.nonnegative_from(p, n0)
    if any(coefficients):
        assert not doubling.nonnegative_from(-p, n0)


def test_nonnegative_from_refuses_what_is_no_polynomial_in_n():
    for p in (doubling.Formal.atom("x"), doubling.Formal.atom("n", -1),
              doubling.Formal.atom("n") * doubling.Formal.atom("ln 2")):
        with pytest.raises(InvalidArgs):
            doubling.nonnegative_from(p, 1)
    assert doubling.nonnegative_from(0, 1)
    assert not doubling.nonnegative_from(-1, 1)


def test_check_stirling_sandwich_carries_the_factorial(monkeypatch):
    # n! is carried from n - 1, never computed from scratch.
    def factorial(n):
        raise AssertionError(f"math.factorial({n}) called")

    monkeypatch.setattr(math, "factorial", factorial)
    report = bounds.check_stirling_sandwich(100)
    assert report.status == bounds.CERTIFIED
    assert report.points_checked == 100


def test_check_stirling_sandwich_empty_range():
    # The proof alone, with nothing swept.
    report = bounds.check_stirling_sandwich(0)
    assert report.status == bounds.CERTIFIED
    assert (report.domain, report.points_checked) == ("n >= 1", 0)


def test_check_stirling_sandwich_refuses_a_negative_range():
    with pytest.raises(InvalidArgs):
        bounds.check_stirling_sandwich(-1)


def test_check_fn_bounds_refuses_an_empty_range():
    with pytest.raises(InvalidArgs):
        bounds.check_fn_bounds(0)


def test_check_lemma_sa_certifies():
    grid = bounds.default_grid(Fraction(1), Fraction(50), Fraction(1, 4))
    report = bounds.check_lemma_sa(grid)
    assert report.status == bounds.CERTIFIED
    with pytest.raises(DomainError):
        bounds.check_lemma_sa([Fraction(1, 2)])


def test_check_lemma_ga_certifies_inside_domain():
    grid = bounds.default_grid(Fraction(2), Fraction(50), Fraction(1, 2))
    usable = bounds.filter_ga_domain(grid, bounds.alpha_low)
    assert usable and usable[0] == 2
    [report] = bounds.check_lemma_ga(usable, [bounds.alpha_low])
    assert report.status == bounds.CERTIFIED
    assert report.points_checked == len(usable)
    assert bounds.check_lemma_ga(usable, []) == []


def test_check_lemma_ga_rejects_point_below_domain():
    # alpha = 1 needs x >= 4^1: the point 1 is left out of the sweep.
    [report] = bounds.check_lemma_ga([Fraction(1), Fraction(5)], [lambda: iv.mpf(1)])
    assert (report.status, report.domain, report.points_checked, report.worst_point) == (
        bounds.CERTIFIED, "x in [5, 5], 1 points", 1, "x=5")
    [report] = bounds.check_lemma_ga([Fraction(1)], [lambda: iv.mpf(1)])
    assert (report.status, report.domain, report.points_checked) == (
        bounds.CERTIFIED, "empty grid", 0)
    # 2 and 5/2 lie above 4^alpha_low (about 1.80) and below 4^alpha_high
    # (about 2.81), so alpha_high's bracket sweeps nothing and is certified.
    low, high = bounds.check_lemma_ga([Fraction(2), Fraction(5, 2)],
                                      (bounds.alpha_low, bounds.alpha_high))
    assert (low.status, low.domain, low.points_checked) == (
        bounds.CERTIFIED, "x in [2, 5/2], 2 points", 2)
    assert high._replace(seconds=0.0) == bounds.BoundReport(
        inequality="growth_template_bracket", domain="empty grid",
        status=bounds.CERTIFIED, points_checked=0, worst_margin="", worst_point="",
        max_precision_bits=bounds.PRECISION_LADDER[0])


# 4^alpha_low is about 1.80 and 4^alpha_high about 2.81, so grids drawn from
# [1, 4] straddle both.  Numerators and denominators are exact at every rung.
@settings(max_examples=40, deadline=None)
@given(grid=st.lists(st.fractions(min_value=1, max_value=4, max_denominator=16),
                     min_size=1, max_size=6),
       alpha=st.sampled_from([bounds.alpha_low, bounds.alpha_high]))
def test_ga_domain_is_an_up_set_and_bounds_the_sweep(grid, alpha):
    kept = bounds.filter_ga_domain(grid, alpha)
    # Kept, in grid order, are exactly the points from some threshold up.
    assert kept == [x for x in grid if kept and x >= min(kept)]
    # The bracket sweeps exactly those points; the others are not refused.
    [report] = bounds.check_lemma_ga(grid, [alpha])
    assert report.status == bounds.CERTIFIED
    assert (report.domain, report.points_checked) == (bounds._grid_domain(kept), len(kept))
    assert report.worst_point in {f"x={x}" for x in kept} | {""}


def _untimed(reports):
    return [report._replace(seconds=0.0) for report in reports]


@settings(max_examples=25, deadline=None)
@given(grid=st.lists(st.fractions(min_value=1, max_value=8, max_denominator=16),
                     min_size=1, max_size=6))
def test_check_lemma_ga_brackets_alphas_together_as_apart(grid):
    # One call shares the alpha-free parts of g_a and the wobble factors
    # between its alphas, which moves no report.
    together = bounds.check_lemma_ga(grid, (bounds.alpha_low, bounds.alpha_high))
    apart = [*bounds.check_lemma_ga(grid, [bounds.alpha_low]),
             *bounds.check_lemma_ga(grid, [bounds.alpha_high])]
    assert _untimed(together) == _untimed(apart)


def test_filter_ga_domain_drops_small_points():
    kept = bounds.filter_ga_domain(
        [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)],
        bounds.alpha_low)
    assert kept == [Fraction(2), Fraction(3)]


def test_check_lemma_gaS_certifies_tightly(monkeypatch):
    # Exactly: the log gap cancels, so the identity holds for every x > 0.
    for beta in (Fraction(2), Fraction(5, 2)):
        for ladder in (LADDER_16, bounds.PRECISION_LADDER):
            monkeypatch.setattr(bounds, "PRECISION_LADDER", ladder)
            report = bounds.check_lemma_gaS(beta)
            assert report.seconds >= 0
            assert report._replace(seconds=0.0) == bounds.BoundReport(
                inequality=f"doubling_identity_beta_{beta}", domain="x > 0",
                status=bounds.CERTIFIED, points_checked=0, worst_margin="0",
                worst_point="symbolic", max_precision_bits=0)
    for beta in (12, Fraction(7, 9), 4, 1):
        assert not doubling.gap(beta, beta)
    for bad in (0, Fraction(-1, 2)):
        with pytest.raises(InvalidArgs):
            bounds.check_lemma_gaS(bad)


def test_check_lemma_gaS_detects_wrong_alpha():
    # Mismatched (beta, alpha) pairs leave ln(beta) - ln(2) on the constant
    # monomial, which the interval check certifies to be nonzero.
    for beta, alpha_beta in ((Fraction(3), Fraction(2)), (Fraction(5, 2), Fraction(2))):
        gap = doubling.gap(beta, alpha_beta)
        assert gap == doubling.ln(beta) - doubling.ln(2)
        report = bounds._identity_report("mismatched", gap)
        assert report.status == bounds.VIOLATED
        assert report.failures == ("coefficient of 1: violated",)
        assert report.domain == "x > 0"
    assert not doubling.gap(4, 4)
    assert bounds.check_lemma_gaS(4).status == bounds.CERTIFIED


def test_identity_report_names_every_nonzero_monomial():
    x, ln_x = doubling.Formal.atom("x"), doubling.Formal.atom("ln x")
    # ln 4 - 2 ln 2 is zero, but as free atoms it does not cancel, and no
    # precision separates it from 0.
    separable = (doubling.ln(3) - doubling.ln(2)) * x * ln_x
    inseparable = (doubling.ln(4) - 2 * doubling.ln(2)) * ln_x * ln_x
    report = bounds._identity_report("demo", separable + inseparable)
    assert report.status == bounds.VIOLATED
    assert report.failures == ("coefficient of (ln x)^2: undecided",
                               "coefficient of x ln x: violated")
    assert report.max_precision_bits == bounds.MAX_PRECISION_BITS
    report = bounds._identity_report("demo", inseparable)
    assert report.status == bounds.UNDECIDED


def test_doubling_module_loads_on_first_proof():
    # Commands that never prove the identity do not load its module.  A
    # fresh interpreter, because this one has imported it already.
    probe = ("import sys, permrex.cli\n"
             "before = 'permrex.doubling' in sys.modules\n"
             "permrex.cli.bounds.check_lemma_gaS(2)\n"
             "print(before, 'permrex.doubling' in sys.modules)\n")
    src = Path(bounds.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def at(x: Fraction):
    """Atom values at the point x, for evaluating a formal polynomial there."""

    def value(atom: str) -> iv.mpf:
        if atom == "x":
            return bounds.rational(x)
        if atom == "ln x":
            return iv.log(bounds.rational(x))
        return doubling.atom_value(atom)

    return value


def test_formal_model_matches_the_interval_functions():
    # A typo in the formal ln S or ln g_a would move it off the function it
    # claims to mirror; tight enclosures of the same real must intersect.
    x_atom, ln_x = doubling.Formal.atom("x"), doubling.Formal.atom("ln x")
    with bounds.precision(800):
        for x in (Fraction(1, 3), Fraction(297, 4)):
            value = at(x)
            ln_s = doubling.ln_S(x_atom, ln_x).evaluate(value)
            assert overlap(ln_s, iv.log(bounds.stirling_S(bounds.rational(x))))
            for beta in (Fraction(2), Fraction(5, 2)):
                a = doubling.alpha(beta)
                assert overlap(a.evaluate(value), bounds.alpha_for_beta(beta))
                ln_g = doubling.ln_g(x_atom, ln_x, a).evaluate(value)
                g = bounds.g_alpha(bounds.rational(x), bounds.alpha_for_beta(beta))
                assert overlap(ln_g, iv.log(g))
                wrong = doubling.ln_g(x_atom, ln_x, a + Fraction(1, 10**20))
                assert not overlap(wrong.evaluate(value), iv.log(g))


def relative_radius(v: iv.mpf):
    lo, hi = bounds.endpoints(v)
    return (hi - lo) / abs(lo + hi)


def test_doubling_identity_samples_agree_off_the_grid():
    # The pointwise evaluation the proof replaced, kept as a sampler: at
    # 800 bits both sides intersect, each with relative radius below 1e-30,
    # including points off the default quarter-step grid on [1, 100].
    with bounds.precision(800):
        for beta in (Fraction(2), Fraction(5, 2)):
            a = bounds.alpha_for_beta(beta)
            for x in (Fraction(1, 3), Fraction(2), Fraction(24), Fraction(297, 4),
                      Fraction(10**4)):
                s_x = bounds.stirling_S(bounds.rational(x))
                s_2x = bounds.stirling_S(bounds.rational(2 * x))
                lhs = bounds.rational(beta) * s_2x / (s_x * s_x) * bounds.g_alpha(
                    bounds.rational(x), a)
                rhs = bounds.g_alpha(bounds.rational(2 * x), a)
                assert overlap(lhs, rhs), (beta, x)
                assert max(relative_radius(lhs), relative_radius(rhs)) < mp.mpf(10)**-30


def test_check_fn_bounds_certifies_with_tight_power_of_two():
    report = bounds.check_fn_bounds(256)
    assert report.status == bounds.CERTIFIED
    assert report.points_checked == 256
    # The strengthened upper bound is exactly tight at n = 1.
    assert report.worst_point == "n=1"
    assert report.worst_margin == "[0.0, 0.0]"


def test_check_fn_bounds_streams_f(monkeypatch):
    # The sweep reads f from lengths.f_values, never the whole table.
    def no_table(max_n):
        raise AssertionError("f_table read")

    monkeypatch.setattr(lengths, "f_table", no_table)
    report = bounds.check_fn_bounds(64)
    assert report.status == bounds.CERTIFIED and report.points_checked == 64


def test_power_of_two_strengthening_is_powers_only():
    # The sharper bound f(n) <= (1/4) g_low(n) genuinely fails off the
    # power-of-two lattice for large enough n, so the sweep must not
    # apply it there.
    with bounds.precision(300):
        failures = []
        for n in range(3, 1025):
            if n & (n - 1) == 0:
                continue
            quarter_g = bounds.rational(Fraction(1, 4)) * bounds.g_alpha(
                iv.mpf(n), bounds.alpha_low())
            if bounds.compare_le(iv.mpf(lengths.f(n)), quarter_g) == bounds.VIOLATED:
                failures.append(n)
        assert failures, "expected the strengthened bound to fail somewhere"


def test_fn_bounds_numeric_sanity():
    # Cross-check the certified inequality numerically at one point.
    with bounds.precision(200):
        n = 20
        low = Fraction(195, 1000)
        g_low = bounds.g_alpha(iv.mpf(n), bounds.alpha_low())
        g_high = bounds.g_alpha(iv.mpf(n), bounds.alpha_high())
        f_n = lengths.f(n)
        assert bounds.endpoints(bounds.rational(low) * g_low)[1] < f_n
        assert f_n < bounds.endpoints(bounds.rational(Fraction(1, 4)) * g_high)[0]


def test_estimate_rows_match_reference():
    rows = bounds.estimate_power_of_two(8)
    assert [row.m for row in rows] == list(range(1, 9))
    for row in rows:
        assert row.f == lengths.f(row.n)
        assert all(mp.isfinite(e) for e in bounds.endpoints(row.ratio))
        assert enclosed(row.ln_ratio, LN_RATIOS[row.m], tol="1e-12")
        assert not row.anomalous
    with pytest.raises(InvalidArgs):
        bounds.estimate_power_of_two(11)


def test_sweep_reports_violated_and_undecided_points():
    def le_point(label, lhs, rhs):
        # lhs and rhs build their intervals at the ladder's precision.
        return label, bounds._le_judge(lambda: [(lhs(), rhs())])

    def one():
        return iv.mpf(1)

    def two():
        return iv.mpf(2)

    def wide_one():  # encloses 1 at every precision without being a point
        return bounds.rational(Fraction(1, 3)) * 3

    undecided = le_point("1 <= 1", wide_one, one)
    violated = le_point("2 <= 1", two, one)
    certified = le_point("1 <= 2", one, two)
    report = bounds._sweep("demo", "three points", [undecided, violated, certified])
    assert report.status == bounds.VIOLATED  # violated wins over undecided
    assert report.failures == ("1 <= 1: undecided", "2 <= 1: violated")
    assert report.max_precision_bits == bounds.MAX_PRECISION_BITS
    assert report.points_checked == 3
    assert report.worst_point == "1 <= 2"
    assert report.worst_margin == "[1.0, 1.0]"
    report = bounds._sweep("demo", "two points", [certified, undecided])
    assert report.status == bounds.UNDECIDED
    assert report.failures == ("1 <= 1: undecided",)
    assert report.max_precision_bits == bounds.MAX_PRECISION_BITS


def test_sweep_escalates_precision_when_needed(monkeypatch):
    # At 16 bits the sandwich margins near n = 100 are thinner than the
    # rounding noise, so the ladder must escalate yet still certify.
    monkeypatch.setattr(bounds, "PRECISION_LADDER", LADDER_16)
    report = bounds.check_stirling_sandwich(100)
    assert report.status == bounds.CERTIFIED
    assert report.max_precision_bits > 16


def test_default_grid():
    grid = bounds.default_grid()
    assert grid[0] == 1
    assert grid[-1] == 100
    assert len(grid) == 397
    assert grid[1] - grid[0] == Fraction(1, 4)
    with pytest.raises(InvalidArgs):
        bounds.default_grid(Fraction(2), Fraction(1), Fraction(1, 4))
    assert bounds.grid_size(Fraction(1), Fraction(100), Fraction(1, 4)) == 397
    assert bounds.grid_size(Fraction(0), Fraction(1), Fraction(1, 3)) == 4
    assert bounds.grid_size(Fraction(0), Fraction(9999), Fraction(1)) == 10_000
    with pytest.raises(InvalidArgs):
        bounds.grid_size(Fraction(0), Fraction(10_000), Fraction(1))


# -- sweep order and errors -------------------------------------------------

def test_sweep_reports_failures_in_point_order(monkeypatch):
    # f is wrong at n = 50, 250 and 260: too large for the upper bound, then
    # too small for the lower one.
    real_f_values = lengths.f_values

    def wrong_f_values(max_n):
        for n, value in enumerate(real_f_values(max_n), 1):
            yield value * 10**6 if n in (50, 250) else value // 10**6 if n == 260 else value

    monkeypatch.setattr(lengths, "f_values", wrong_f_values)
    report = bounds.check_fn_bounds(300)
    assert report.status == bounds.VIOLATED
    assert report.failures == ("n=50: violated", "n=250: violated", "n=260: violated")
    assert report.points_checked == 300 and report.worst_point == "n=1"


def _points_raising_at(bad: int):
    def judge(i):
        if i == bad:
            raise DomainError(f"no value at point {i}")
        return bounds.CERTIFIED, iv.mpf(1000 - i)

    return [(f"i={i}", partial(judge, i)) for i in range(300)]


def test_sweep_raises_a_points_domain_error_unchanged():
    with pytest.raises(DomainError) as info:
        bounds._sweep("demo", "300 points", _points_raising_at(200))
    assert str(info.value) == "no value at point 200"
    # Without the bad point, the last point is the worst.
    report = bounds._sweep("demo", "300 points", _points_raising_at(-1))
    assert (report.status, report.points_checked, report.worst_point) == (
        bounds.CERTIFIED, 300, "i=299")
