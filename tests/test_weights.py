import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medembed.weights import (
    WeightFunction,
    build_weight_report,
    deficit_constant,
    deficit_scan,
    diff_sq_sum,
    diff_sq_tail_bound,
    find_monotone_cutoff,
    parse_weight,
    paper_formula,
    sq_partial_sum,
    sq_partial_sums,
)

# Frozen oracle values, computed independently with mpmath at 50 digits
# (see test_matches_high_precision_oracle, which recomputes them).
XI_18 = 2.35118282830013
XI_18_SQ = 5.52806069209341
XI_100 = 3.05131494626
INV_LNLN_18 = 0.942165074601011
SUM_SQ_18_19_20 = 16.6069717014757
DEFICIT_18 = 44.2244855367473  # equals 8 * XI_18_SQ


def test_paper_is_zero_below_cutoff():
    w = WeightFunction.paper(18)
    assert w.value(17) == 0.0
    assert w.value(1) == 0.0
    assert w.value(17.999) == 0.0


def test_paper_value_at_100():
    w = WeightFunction.paper(18)
    assert w.value(100) == pytest.approx(3.0513, abs=1e-4)
    assert w.value(100) == pytest.approx(XI_100, rel=1e-9)


def test_unit_weight_is_constant():
    w = WeightFunction.unit()
    assert w.value(5) == 1.0
    assert w.value(1) == 1.0


def test_power_weight():
    w = WeightFunction.power(0.25)
    assert w.value(4) == pytest.approx(4 ** -0.25, rel=1e-12)
    assert math.sqrt(9) * w.value(9) == pytest.approx(9 ** 0.25, rel=1e-12)


def test_domain_guard():
    w = WeightFunction.unit()
    with pytest.raises(ValueError):
        w.value(0.5)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        WeightFunction.paper(15)
    with pytest.raises(ValueError):
        WeightFunction.power(0.75)
    with pytest.raises(ValueError):
        WeightFunction.power(0.0)
    with pytest.warns(UserWarning):
        WeightFunction.paper(16)


def test_parse_weight_round_trip():
    for label in ("unit", "paper:18", "paper:25", "power:0.25"):
        assert parse_weight(label).label() == label
    assert parse_weight("paper").m == 18
    with pytest.raises(ValueError):
        parse_weight("gaussian")


def test_monotone_cutoff_is_18():
    assert find_monotone_cutoff() == 18


def test_cutoff_scan_neighbors():
    # increasing right of the cutoff, decreasing into it
    v = paper_formula(np.array([17.0, 18.0, 19.0]))
    assert v[2] > v[1]
    assert v[1] < v[0]


def test_cutoff_power_weight_monotone_from_one():
    w = WeightFunction.power(0.25)
    assert w.cutoff == 1
    vals = w.values(np.arange(1, 50, dtype=float))
    assert np.all(np.diff(vals) <= 0)  # exponent below 1/2 decays


def test_monotone_above_cutoff_long_scan():
    w = WeightFunction.paper(18)
    vals = w.values(np.arange(18, 100_001, dtype=np.float64))
    assert np.all(np.diff(vals) >= 0)


def test_diff_sq_sum_below_cutoff_is_zero():
    w = WeightFunction.paper(18)
    assert diff_sq_sum(w, 16) == 0.0


def test_diff_sq_sum_first_jump():
    w = WeightFunction.paper(18)
    val = diff_sq_sum(w, 17)
    assert val == pytest.approx(5.525, abs=1e-2)
    assert val == pytest.approx(XI_18_SQ, rel=1e-9)


def test_diff_sq_sum_unit_zero():
    assert diff_sq_sum(WeightFunction.unit(), 10) == 0.0


def test_tail_bound_value_and_shrinking():
    assert diff_sq_tail_bound(WeightFunction.paper(18)) == pytest.approx(
        0.9420, abs=1e-3)
    assert diff_sq_tail_bound(WeightFunction.paper(18)) == pytest.approx(
        INV_LNLN_18, rel=1e-9)
    assert diff_sq_tail_bound(WeightFunction.paper(10**6)) < diff_sq_tail_bound(
        WeightFunction.paper(18))
    with pytest.raises(ValueError):
        diff_sq_tail_bound(WeightFunction.unit())


def test_tail_sum_below_closed_form_bound():
    w = WeightFunction.paper(18)
    tail = diff_sq_sum(w, 100_000) - diff_sq_sum(w, 17)
    assert 0 < tail <= INV_LNLN_18


def test_diff_sq_sum_bounded_with_cutoff_jump():
    w = WeightFunction.paper(18)
    cap = XI_18_SQ + INV_LNLN_18
    for n in (17, 18, 100, 10_000, 100_000):
        assert diff_sq_sum(w, n) <= cap


def test_sq_partial_sum_values():
    w = WeightFunction.paper(18)
    assert sq_partial_sum(w, 17) == 0.0
    assert sq_partial_sum(WeightFunction.unit(), 7) == 7.0
    assert sq_partial_sum(w, 20) == pytest.approx(SUM_SQ_18_19_20, rel=1e-9)


def test_deficit_constant_unit_is_zero():
    assert deficit_constant(WeightFunction.unit(), 1000) == 0.0


def test_deficit_constant_paper():
    w = WeightFunction.paper(18)
    c, at = deficit_scan(w, 100_000)
    assert at == 18
    assert c == pytest.approx(8 * XI_18_SQ, rel=1e-9)
    # candidate at the cutoff equals 18/2 * xi(18)^2 - xi(18)^2
    assert c == pytest.approx(DEFICIT_18, rel=1e-9)


def test_deficit_stabilizes():
    w = WeightFunction.paper(18)
    assert deficit_constant(w, 1000) == deficit_constant(w, 100_000)


def test_deficit_is_valid_bound_everywhere():
    w = WeightFunction.paper(18)
    n = 5000
    c = deficit_constant(w, n)
    sums = sq_partial_sums(w, n)
    idx = np.arange(1, n + 1, dtype=float)
    vals = w.values(idx)
    lhs = sums
    rhs = 0.5 * idx * vals * vals - c
    assert np.all(lhs >= rhs - 1e-12)


@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_diff_sq_sum_monotone_in_n(a, b):
    w = WeightFunction.paper(18)
    lo, hi = min(a, b), max(a, b)
    assert diff_sq_sum(w, lo) <= diff_sq_sum(w, hi) + 1e-15


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_unit_partial_sum_exact(n):
    assert sq_partial_sum(WeightFunction.unit(), n) == float(n)


@given(st.integers(min_value=18, max_value=999_999))
@settings(max_examples=50, deadline=None)
def test_nondecreasing_at_random_index(i):
    w = WeightFunction.paper(18)
    assert w.value(i + 1) >= w.value(i)


def test_weight_report_passes():
    report = build_weight_report(WeightFunction.paper(18), n_max=100_000,
                                 checkpoints=(10**3, 10**4, 10**5))
    assert report.passed
    assert report.monotone_ok and report.stabilized
    assert report.deficit_argmax == 18
    assert report.margin > 0
    sums = [s for _, s in report.partial_sums]
    assert sums == sorted(sums)


def test_weight_report_deficits_match_deficit_scan():
    # one evaluation of w serves both deficit scans; at n_max = M - 1 the
    # n_max/10 scan reaches M, one point past n_max
    for w in (WeightFunction.paper(18), WeightFunction.paper(25)):
        for n_max in (w.m - 1, w.m, w.m + 1, 10 * w.m - 1, 10 * w.m, 12_345):
            report = build_weight_report(w, n_max=n_max)
            c_full, at = deficit_scan(w, n_max)
            c_tenth, _ = deficit_scan(w, max(w.m, n_max // 10))
            assert (report.deficit_constant, report.deficit_argmax) == (c_full, at)
            assert report.stabilized == (c_full == c_tenth and at < n_max)


def test_weight_report_fails_for_nonmonotone_cutoff():
    with pytest.warns(UserWarning):
        w = WeightFunction.paper(16)
    report = build_weight_report(w, n_max=10_000, checkpoints=(10**3,))
    assert not report.monotone_ok
    assert not report.passed


def test_matches_high_precision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    def xi(t):
        t = mp.mpf(t)
        return mp.sqrt(t) / (mp.sqrt(mp.log(t)) * mp.log(mp.log(t)))

    assert float(xi(18)) == pytest.approx(XI_18, rel=1e-12)
    assert float(xi(18) ** 2) == pytest.approx(XI_18_SQ, rel=1e-12)
    assert float(xi(100)) == pytest.approx(XI_100, rel=1e-10)
    assert float(1 / mp.log(mp.log(18))) == pytest.approx(INV_LNLN_18, rel=1e-12)
    assert float(xi(18)**2 + xi(19)**2 + xi(20)**2) == pytest.approx(
        SUM_SQ_18_19_20, rel=1e-12)
