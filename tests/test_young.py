"""Young-function evaluation, inversion, validation and the family parser."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    BracketError,
    DomainError,
    FamilySpecError,
    YoungFunction,
    identity_family,
    iterlog_family,
    logbump_family,
    make_family,
    power_family,
    powerlog_e_family,
    sinpiecewise_family,
    validate,
)
from orlicz.young import E_MINUS_1, _anchor_constant

from conftest import CATALOG_SPECS

E_E_MINUS_1 = 14.154262241479262  # exp(e) - 1, the two-fold iterated-log anchor


def test_power_pointwise():
    assert power_family().make(2.0)(3.0) == 9.0


def test_logbump_unit_point():
    # log(e-1+1) = 1 makes the factor collapse at t=1 for every q
    assert logbump_family(1.0).make(5.0)(1.0) == pytest.approx(1.0, abs=1e-15)


def test_sinpiecewise_low_branch():
    assert sinpiecewise_family().make(4.0)(0.5) == pytest.approx(0.03125, abs=1e-16)


def test_zero_maps_to_zero(catalog_family):
    psi = catalog_family.make(2.0)
    assert psi(0.0) == 0.0
    assert psi.evaluate(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert psi.evaluate(np.array([])).size == 0


def test_negative_and_nonfinite_rejected():
    psi = power_family().make(2.0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            psi(bad)


# Subnormal, tiny, around 1/2 and 1, and large enough to overflow any member.
PARITY_GRID = (0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-200, 1e-20, 0.25,
               0.5, math.nextafter(0.5, 1.0), 0.75, math.nextafter(1.0, 0.0), 1.0,
               math.nextafter(1.0, 2.0), 1.5, 2.0, 10.0, 1e3, 1e20, 1e100, 1e300,
               1.7976931348623157e308)


@pytest.mark.parametrize("q", [1.0, 4.0, 64.0, 4096.0])
@pytest.mark.parametrize("spec", CATALOG_SPECS + ("identity", "iterlog:N=3"))
def test_array_evaluation_matches_scalar(spec, q):
    psi = make_family(spec).make(q)
    got = psi.evaluate(np.array(PARITY_GRID))
    # One rounding in log or pow is amplified by the exponent it is raised to.
    rel = 8.0 * (psi.params.get("p", 1.0) + q + 1.0) * np.finfo(float).eps
    for t, a in zip(PARITY_GRID, got.tolist()):
        s = psi(t)
        if math.isinf(s):
            assert a == math.inf, (t, s, a)
        else:
            assert abs(a - s) <= rel * s, (t, s, a)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_array_evaluation_rejects_bad_t(catalog_family, bad):
    psi = catalog_family.make(2.0)
    with pytest.raises(DomainError):
        psi(bad)
    with pytest.raises(DomainError):
        psi.evaluate(np.array([1.0, bad, 2.0]))


def test_overflow_saturates_to_inf():
    psi = power_family().make(4096.0)
    assert psi(50.0) == math.inf


def test_inverse_square_root():
    assert power_family().make(2.0).inverse(4.0) == pytest.approx(2.0, rel=1e-12)


def test_inverse_unit_anchor():
    assert logbump_family(1.0).make(1.0).inverse(1.0) == pytest.approx(1.0, rel=1e-12)


def test_inverse_powerlog_newton_oracle():
    # Root of t*log(e+t)^3 = 1, frozen from an independent Newton iteration.
    psi = powerlog_e_family(1.0).make(3.0)
    assert psi.inverse(1.0) == pytest.approx(0.5857757180802776, rel=1e-11)


def test_inverse_domain():
    psi = power_family().make(2.0)
    assert psi.inverse(0.0) == 0.0
    with pytest.raises(DomainError):
        psi.inverse(-1.0)
    with pytest.raises(DomainError):
        psi.inverse(math.inf)


def test_inverse_unbracketable():
    # Bounded fake function: doubling can never reach y=2.
    bounded = YoungFunction(lambda t: min(t, 1.0), "bounded", {})
    with pytest.raises(BracketError):
        bounded.inverse(2.0)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_inverse_round_trip(y, q):
    """psi(psi^{-1}(y)) == y to solver tolerance, across magnitudes."""
    psi = logbump_family(2.0).make(q)
    t = psi.inverse(y)
    assert psi(t) == pytest.approx(y, rel=1e-9)


@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_inverse_monotone(y1, y2):
    psi = power_family().make(3.0)
    lo, hi = sorted((y1, y2))
    assert psi.inverse(lo) <= psi.inverse(hi) * (1 + 1e-12)


def test_validate_catalog_clean(catalog_family):
    report = validate(catalog_family.make(1.5))
    assert report.ok, report.violations


def test_validate_power_on_ten_grid():
    grid = tuple(i / 10.0 for i in range(101))
    assert validate(power_family().make(1.5), grid=grid).ok


def test_validate_iterlog_wide_grid():
    grid = tuple(i / 10.0 for i in range(1001))  # [0, 100]
    assert validate(iterlog_family(2, 1.0).make(3.0), grid=grid).ok


def test_validate_flags_concave_probe():
    probe = YoungFunction(math.sqrt, "sqrt", {})
    report = validate(probe)
    assert not report.ok
    assert any(v.axiom == "convexity" for v in report.violations)


def test_validate_flags_nonzero_origin():
    shifted = YoungFunction(lambda t: t + 1.0, "shifted", {})
    report = validate(shifted)
    assert any(v.axiom == "zero" for v in report.violations)


def test_array_evaluation_pins_zero():
    def shifted(t):
        return t + 1.0
    psi = YoungFunction(shifted, "shifted", {}, array_fn=shifted)
    assert psi.evaluate(np.array([0.0, 1.0])).tolist() == [psi(0.0), psi(1.0)] == [0.0, 2.0]


def test_identity_family_not_strict():
    fam = identity_family()
    psi = fam.make(7.0)
    assert psi(3.5) == 3.5
    report = validate(psi)
    assert report.ok and not report.strict


def test_strict_flag_on_superlinear(catalog_family):
    assert validate(catalog_family.make(2.0)).strict


def test_iterlog_anchor_constants():
    assert _anchor_constant(1) == pytest.approx(E_MINUS_1, rel=1e-14)
    assert _anchor_constant(2) == pytest.approx(E_E_MINUS_1, rel=1e-14)


@pytest.mark.parametrize("q", [1.0, 5.0, 20.0])
def test_iterlog_n2_unit_normalization(q):
    assert iterlog_family(2, 1.0).make(q)(1.0) == pytest.approx(1.0, abs=1e-12)


def test_parser_power():
    fam = make_family("power")
    assert fam.label == "power"
    assert fam.make(2.0)(3.0) == 9.0
    with pytest.raises(DomainError):
        fam.make(0.5)  # q_domain is q >= 1


def test_parser_iterlog_n1_matches_logbump():
    a = make_family("iterlog:N=1,p=2").make(3.0)
    b = logbump_family(2.0).make(3.0)
    for t in (0.1, 0.7, 1.0, 4.3):
        assert a(t) == pytest.approx(b(t), rel=1e-14)


@pytest.mark.parametrize("bad", [
    "nosuch",
    "power:p=2",          # power takes no keys
    "logbump:p=0.5",      # p >= 1 required
    "iterlog:N=0",
    "iterlog:N=2.5",      # N must be an integer
    "iterlog:N=4",        # anchor not representable
    "logbump:p=2,p=3",    # duplicate key
    "logbump:p=",
    "logbump:wat=1",
    ":p=2",
])
def test_parser_rejects(bad):
    with pytest.raises(FamilySpecError):
        make_family(bad)


def test_family_q_domain_enforced(catalog_family):
    with pytest.raises(DomainError):
        catalog_family.make(-1.0)


def test_member_labels_carry_parameters():
    psi = make_family("logbump:p=2").make(8.0)
    assert "p=2" in psi.label and "q=8" in psi.label
