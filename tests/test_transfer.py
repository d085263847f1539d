"""Log-bump transfer factor and the exponential comparison map."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    DomainError,
    logbump_family,
    logbump_transfer,
    tc_fixed_point_check,
)
from orlicz.admissibility import _tc_map

LOG_EM1 = math.log(math.e - 1.0)


def test_unit_anchor_for_any_parameters():
    for p, q0, q in ((1.0, 1.0, 3.0), (2.0, 1.0, 8.0), (3.0, 2.0, 5.0)):
        assert logbump_transfer(p, q0, q, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_zero_limit_closed_form():
    # log(e-1)^((q-q0)/p); the p=1,q0=1,q=3 case is log(e-1)^2.
    assert logbump_transfer(1.0, 1.0, 3.0, 0.0) == pytest.approx(
        0.2930325982216968, abs=1e-15)
    assert logbump_transfer(2.0, 1.0, 8.0, 0.0) == pytest.approx(
        0.11670860760727793, abs=1e-15)


def test_zero_limit_agrees_with_small_t():
    f0 = logbump_transfer(1.0, 1.0, 3.0, 0.0)
    f_small = logbump_transfer(1.0, 1.0, 3.0, 1e-8)
    assert f_small == pytest.approx(f0, rel=1e-6)
    assert f_small > f0


@pytest.mark.parametrize("p,q0,q", [(1.0, 1.0, 3.0), (2.0, 1.0, 8.0)])
def test_defining_identity_on_grid(p, q0, q):
    """F(t)^p * log(e-1+t)^q0 == log(e-1+t/F(t))^q pointwise."""
    for t in np.linspace(0.0, 10.0, 100):
        t = float(t)
        F = logbump_transfer(p, q0, q, t)
        if t == 0.0:
            continue
        residual = abs(F ** p * math.log(math.e - 1.0 + t) ** q0
                       - math.log(math.e - 1.0 + t / F) ** q)
        assert residual <= 1e-8, (t, residual)


@pytest.mark.parametrize("p,q0,q", [(1.0, 1.0, 3.0), (2.0, 1.0, 8.0)])
def test_transfer_exceeds_zero_limit(p, q0, q):
    f0 = logbump_transfer(p, q0, q, 0.0)
    for t in np.linspace(0.05, 10.0, 100):
        assert logbump_transfer(p, q0, q, float(t)) > f0


def test_transfer_is_inverse_ratio():
    fam = logbump_family(1.0)
    t = 0.5
    direct = t / fam.make(3.0).inverse(fam.make(1.0)(t))
    assert logbump_transfer(1.0, 1.0, 3.0, t) == pytest.approx(direct, rel=1e-12)
    assert direct > logbump_transfer(1.0, 1.0, 3.0, 0.0)


def test_transfer_domain_errors():
    with pytest.raises(DomainError):
        logbump_transfer(0.5, 1.0, 3.0, 1.0)   # p < 1
    with pytest.raises(DomainError):
        logbump_transfer(1.0, 3.0, 3.0, 1.0)   # needs q > q0
    with pytest.raises(DomainError):
        logbump_transfer(1.0, 1.0, 3.0, -1.0)
    with pytest.raises(DomainError):
        logbump_transfer(1.0, 1.0, 3.0, math.inf)


@pytest.mark.parametrize("p,q0,q,t", [(1.0, 1.0, 3.0, 1e308), (2.0, 1.0, 8.0, 1e306)])
def test_transfer_psi_q0_beyond_double_range(p, q0, q, t):
    # psi_q0(t) overflows: a valid t, not bad input
    with pytest.raises(OverflowError, match="beyond the double range"):
        logbump_transfer(p, q0, q, t)


@pytest.mark.parametrize("p,q0,q,t", [(1.0, 1.0, 3.0, 5e-324), (2.0, 1.0, 8.0, 1e-160),
                                     (2.0, 1.0, 8.0, 1e-162)])
def test_transfer_psi_q0_below_normal_range(p, q0, q, t):
    # psi_q0(t) is subnormal or 0, where its inverse cannot resolve t: these
    # gave 0.25 (mpmath: 0.29303), 0.116716988 (7.2e-5 relative off
    # 0.116708608) and ZeroDivisionError.
    with pytest.raises(OverflowError, match="below the normal double range"):
        logbump_transfer(p, q0, q, t)


def test_transfer_near_double_range():
    assert logbump_transfer(1.0, 1.0, 3.0, 1e300) == pytest.approx(450697.3936671827, rel=1e-12)


def test_tc_map_anchor():
    # T_1(1) = exp(1) - (e-1) = 1: the normalization point is a fixed point
    # of the unit-c map.
    assert _tc_map(1.0, 1.0, 3.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_fixed_point_at_anchor():
    report = tc_fixed_point_check(1.0, 1.0, 3.0, 1.0, 1.0)
    assert report.fixed_point_ok
    assert report.residual <= 1e-12
    assert report.predicate_failures == ()


def test_fixed_point_spec_case():
    c = logbump_transfer(1.0, 1.0, 8.0, 0.3)
    report = tc_fixed_point_check(1.0, 1.0, 8.0, c, 0.3)
    assert report.fixed_point_ok
    assert report.residual <= 1e-8


@given(st.floats(min_value=0.05, max_value=10.0),
       st.sampled_from([(1.0, 1.0, 3.0), (2.0, 1.0, 8.0)]))
@settings(max_examples=150, deadline=None)
def test_fixed_point_everywhere(t1, params):
    p, q0, q = params
    c = logbump_transfer(p, q0, q, t1)
    report = tc_fixed_point_check(p, q0, q, c, t1)
    assert report.fixed_point_ok, (t1, report.residual)


def test_predicate_holds_below_uniform_threshold():
    # With c below ((q/q0)^q * log(e-1)^(q-q0))^(1/p) the concavity
    # inequality holds on the whole grid, here [0, 2 * 5].
    p, q0, q = 1.0, 1.0, 3.0
    M = ((q / q0) ** q * LOG_EM1 ** (q - q0)) ** (1.0 / p)
    report = tc_fixed_point_check(p, q0, q, min(M, 1.0), 5.0)
    assert report.predicate_failures == ()


def test_predicate_failures_reported_for_huge_c():
    report = tc_fixed_point_check(1.0, 1.0, 3.0, 1e6, 2.5)  # the grid [0, 2 * 2.5]
    assert len(report.predicate_failures) > 0
    assert not report.fixed_point_ok  # c=1e6 is nowhere near F(2.5)


def test_fixed_point_check_domain_errors():
    with pytest.raises(DomainError):
        tc_fixed_point_check(1.0, 1.0, 3.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        tc_fixed_point_check(1.0, 1.0, 3.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        tc_fixed_point_check(1.0, 3.0, 2.0, 1.0, 1.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, -3.0, 0.5])
def test_fixed_point_check_rejects_bad_p(p):
    # p went unchecked: NaN gave residual NaN and 64 NaN "failures", and -3
    # a residual of 0.617 with the predicate holding on the whole grid
    with pytest.raises(DomainError, match="p must be >= 1"):
        tc_fixed_point_check(p, 1.0, 3.0, 2.0, 0.3)


def test_fixed_point_check_default_grid_beyond_double_range():
    # t1 is valid, but the default grid end 2 * t1 overflows
    with pytest.raises(OverflowError, match="t1=1e"):
        tc_fixed_point_check(1.0, 1.0, 3.0, 1.0, 1e308)
