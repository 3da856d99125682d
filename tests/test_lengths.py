import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permrex import lengths
from permrex.errors import InvalidArgs

# First ten values, computed by hand from the recurrence
# f(n) = C(n, floor(n/2)) * (f(floor(n/2)) + f(ceil(n/2))), f(1) = 1.
F_FIRST_TEN = [1, 4, 15, 48, 190, 600, 2205, 6720, 29988, 95760]

# t(n) = n * (1 + t(n-1)), t(1) = 1, by hand.
T_FIRST_SEVEN = [1, 4, 15, 64, 325, 1956, 13699]


def test_f_first_ten():
    assert lengths.f_table(10) == F_FIRST_TEN


def test_f_table_matches_pointwise():
    # f_table carries C(n, floor(n/2)) bottom-up and f recurses top-down;
    # 600 values cover both parities of the carried binomial many times.
    table = lengths.f_table(600)
    assert [lengths.f(n) for n in range(1, 601)] == table


def test_f_values_stream_the_table_keeping_half():
    assert list(lengths.f_values(0)) == []
    for max_n in (1, 2, 7, 100, 101):
        stream = lengths.f_values(max_n)
        assert [next(stream) for _ in range(max_n)] == lengths.f_table(max_n)
        # At its last value the stream holds f up to ceil(max_n/2) alone.
        assert len(stream.gi_frame.f_locals["kept"]) == (max_n + 1) // 2
        assert next(stream, None) is None


def test_f_rejects_nonpositive():
    with pytest.raises(InvalidArgs):
        lengths.f(0)
    with pytest.raises(InvalidArgs):
        lengths.f_table(0)


def test_t_first_seven():
    assert [lengths.t(n) for n in range(1, 8)] == T_FIRST_SEVEN


def test_flat_length():
    assert [lengths.flat_length(n) for n in range(1, 6)] == [1, 4, 18, 96, 600]
    assert lengths.flat_length(8) == 8 * math.factorial(8)


def test_f_power_of_two_product_identity():
    # At n = 2^m the recurrence telescopes to n * n! / product of
    # factorials of the halving chain 2^(m-1), ..., 2, 1.
    for m in range(0, 11):
        n = 2**m
        denominator = 1
        half = n // 2
        while half >= 1:
            denominator *= math.factorial(half)
            half //= 2
        assert lengths.f(n) == n * math.factorial(n) // denominator


@settings(max_examples=60)
@given(st.integers(2, 200))
def test_f_recurrence_holds(n):
    assert lengths.f(n) == math.comb(n, n // 2) * (
        lengths.f(n // 2) + lengths.f((n + 1) // 2))


@settings(max_examples=60)
@given(st.integers(2, 120))
def test_t_recurrence_holds(n):
    assert lengths.t(n) == n * (1 + lengths.t(n - 1))


@settings(max_examples=60)
@given(st.integers(1, 60))
def test_orderings_f_below_t_below_flat(n):
    assert lengths.f(n) <= lengths.t(n) <= lengths.flat_length(n)


def test_split_delta_zero_exactly_at_halved_splits():
    for n in range(2, 40):
        for k in range(1, n):
            delta = lengths.split_delta(n, k)
            if k in (n // 2, (n + 1) // 2):
                assert delta == 0, (n, k)
            else:
                assert delta > 0, (n, k)


def test_split_delta_rejects_degenerate_splits():
    with pytest.raises(InvalidArgs):
        lengths.split_delta(5, 0)
    with pytest.raises(InvalidArgs):
        lengths.split_delta(5, 5)


def test_check_opt_choice_passes_small_range():
    for n in range(2, 65):
        report = lengths.check_opt_choice(n)
        assert report.passed, report.violations
        assert set(report.equality_ks) == {n // 2, (n + 1) // 2}


def reference_opt_choice(n):
    """check_opt_choice's report, built from split_delta one k at a time."""
    best = {n // 2, (n + 1) // 2}
    violations, equality = [], []
    for k in range(1, n):
        delta = lengths.split_delta(n, k)
        if delta < 0:
            violations.append(lengths.SplitViolation(n, k, delta, "negative slack"))
        elif delta == 0:
            equality.append(k)
            if k not in best:
                violations.append(lengths.SplitViolation(n, k, delta, "unexpected tie"))
        elif k in best:
            violations.append(lengths.SplitViolation(n, k, delta, "halved split not tight"))
    return lengths.OptChoiceReport(n, not violations, tuple(equality), tuple(violations))


def test_check_opt_choice_matches_split_delta_reference():
    for n in range(1, 301):
        assert lengths.check_opt_choice(n) == reference_opt_choice(n), n


# f(7) is moved by +1, by -1, and by split_delta(7, 1) = 2002, which makes
# the split 1 + 6 of n = 7 exactly as long as the halved one.  The moved value
# also enters every n whose split has a part of 7.
@pytest.mark.parametrize("offset, reasons", [
    (1, {"negative slack", "halved split not tight"}),
    (-1, {"negative slack", "halved split not tight"}),
    (2002, {"negative slack", "unexpected tie", "halved split not tight"}),
])
def test_check_opt_choice_matches_reference_when_f_is_wrong(monkeypatch, offset, reasons):
    true = lengths.f_table(40)
    assert lengths.split_delta(7, 1) == 2002
    monkeypatch.setattr(lengths, "f", lambda n: true[n - 1] + (offset if n == 7 else 0))
    seen = set()
    for n in range(1, 41):
        report = lengths.check_opt_choice(n)
        assert report == reference_opt_choice(n), n
        seen |= {v.reason for v in report.violations}
    assert seen == reasons


def test_check_triple_growth():
    report = lengths.check_triple_growth(64)
    assert report.passed
    assert report.min_ratio >= 3
    assert report.min_ratio == Fraction(lengths.f(report.min_ratio_at + 1),
                                        lengths.f(report.min_ratio_at))


def test_check_triple_growth_reports_a_ratio_below_three(monkeypatch):
    real = lengths.f  # f(8) = 6614 = 3 f(7) - 1
    monkeypatch.setattr(lengths, "f", lambda n: 6614 if n == 8 else real(n))
    report = lengths.check_triple_growth(9)
    assert not report.passed
    assert report.violations == ((7, Fraction(6614, 2205)),)
    assert (report.min_ratio, report.min_ratio_at) == (Fraction(6614, 2205), 7)


def test_check_triple_growth_trivial_range():
    report = lengths.check_triple_growth(1)
    assert report.passed
    assert report.min_ratio is None


@settings(max_examples=40)
@given(st.integers(1, 256))
def test_triple_growth_pointwise(n):
    assert lengths.f(n + 1) >= 3 * lengths.f(n)
