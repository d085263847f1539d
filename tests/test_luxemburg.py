"""Norm solver: closed-form oracles, modular laws, inequality invariants."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import orlicz.luxemburg as luxemburg
from orlicz import (
    DomainError,
    MeasureSpace,
    SimpleFunction,
    YoungFunction,
    chebyshev_bound,
    indicator_norm,
    luxemburg_norm,
    make_family,
    modular,
    power_family,
    powerlog_e_family,
)

INF = MeasureSpace(math.inf)
SQRT10 = 3.1622776601683795


def two_atom():
    return SimpleFunction(((3.0, 1.0), (1.0, 1.0)), INF)


def test_modular_single_atom():
    psi = power_family().make(2.0)
    f = SimpleFunction(((2.0, 1.0),), INF)
    assert modular(psi, f, 1.0) == 4.0
    assert modular(psi, f, 2.0) == 1.0


def test_modular_unit_anchor():
    psi = make_family("logbump").make(1.0)
    f = SimpleFunction(((1.0, 1.0),), INF)
    assert modular(psi, f, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_modular_rejects_bad_lambda():
    psi = power_family().make(2.0)
    f = two_atom()
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            modular(psi, f, bad)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_modular_decreasing_in_lambda(l1, l2):
    psi = power_family().make(3.0)
    f = two_atom()
    lo, hi = sorted((l1, l2))
    if lo < hi:
        assert modular(psi, f, lo) >= modular(psi, f, hi)


def test_indicator_closed_form_mass_8():
    psi = power_family().make(3.0)
    f = SimpleFunction(((1.0, 8.0),), INF)
    assert luxemburg_norm(psi, f).norm == pytest.approx(2.0, rel=1e-12)
    assert indicator_norm(psi, 8.0) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("p,m", [(2.0, 4.0), (1.0, 3.0), (5.0, 0.25)])
def test_indicator_matches_lebesgue(p, m):
    assert indicator_norm(power_family().make(p), m) == pytest.approx(
        m ** (1.0 / p), rel=1e-12)


def test_indicator_powerlog_exceeds_one():
    psi = powerlog_e_family(1.0).make(10.0)
    nrm = indicator_norm(psi, 1.0)
    assert nrm > 1.0
    assert psi(1.0 / nrm) == pytest.approx(1.0, rel=1e-9)
    # Frozen from an independent Newton solve of t*log(e+t)^10 = 1.
    assert nrm == pytest.approx(2.9938664472173833, rel=1e-11)


def test_two_atom_l2_oracle():
    result = luxemburg_norm(power_family().make(2.0), two_atom())
    assert result.norm == pytest.approx(SQRT10, rel=1e-13)
    assert abs(result.modular_at_norm - 1.0) <= 1e-10


def test_zero_function_norm():
    result = luxemburg_norm(power_family().make(2.0), SimpleFunction((), INF))
    assert result.norm == 0.0


def test_norm_result_reports_bracket():
    result = luxemburg_norm(power_family().make(2.0), two_atom())
    lo, hi = result.bracket
    assert lo <= result.norm <= hi
    assert result.iterations > 0


@pytest.mark.parametrize("q", [1.0, 2.0, 8.0, 64.0, 1024.0, 4096.0])
def test_power_closed_form_all_q(q):
    got = luxemburg_norm(power_family().make(q), two_atom()).norm
    want = 3.0 * math.exp(math.log1p(3.0 ** -q) / q)
    assert got == pytest.approx(want, rel=1e-12)


def test_unit_modular_at_norm(catalog_family):
    psi = catalog_family.make(3.0)
    result = luxemburg_norm(psi, two_atom())
    assert abs(result.modular_at_norm - 1.0) <= 1e-10


@given(st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_homogeneity(c):
    """||c f|| = c ||f|| for c > 0."""
    psi = make_family("logbump:p=2").make(4.0)
    base = luxemburg_norm(psi, two_atom()).norm
    scaled = SimpleFunction(((3.0 * c, 1.0), (1.0 * c, 1.0)), INF)
    assert luxemburg_norm(psi, scaled).norm == pytest.approx(c * base, rel=1e-10)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=50.0),
                          st.floats(min_value=0.01, max_value=20.0)),
                min_size=1, max_size=6),
       st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=150, deadline=None)
def test_monotone_in_f(atoms, shrink):
    """Pointwise domination f <= g implies ||f|| <= ||g||."""
    psi = make_family("iterlog").make(2.5)
    g = SimpleFunction(tuple(atoms), INF)
    f = SimpleFunction(tuple((v * shrink, m) for v, m in atoms), INF)
    nf = luxemburg_norm(psi, f).norm
    ng = luxemburg_norm(psi, g).norm
    assert nf <= ng * (1.0 + 1e-10)


def test_chebyshev_saturation_on_indicator():
    psi = power_family().make(2.0)
    f = SimpleFunction(((1.0, 4.0),), INF)
    assert chebyshev_bound(psi, f, 1.0) == pytest.approx(
        luxemburg_norm(psi, f).norm, rel=1e-12)


def test_chebyshev_two_atom_hand_value():
    # alpha=3 captures only the top atom (mass 1): 3 / psi^{-1}(1) = 3.
    f = two_atom()
    psi = power_family().make(2.0)
    assert chebyshev_bound(psi, f, 3.0) == pytest.approx(3.0, rel=1e-12)
    assert chebyshev_bound(psi, f, 3.0) <= luxemburg_norm(psi, f).norm


def test_chebyshev_above_sup_is_zero():
    assert chebyshev_bound(power_family().make(2.0), two_atom(), 5.0) == 0.0


def test_chebyshev_infinite_level_set_rejected():
    psi = power_family().make(2.0)
    f = two_atom()
    with pytest.raises(DomainError):
        chebyshev_bound(psi, f, 0.0)  # {f >= 0} has infinite measure here


@given(st.lists(st.tuples(st.floats(min_value=0.05, max_value=20.0),
                          st.floats(min_value=0.05, max_value=10.0)),
                min_size=1, max_size=5),
       st.floats(min_value=0.05, max_value=25.0))
@settings(max_examples=150, deadline=None)
def test_chebyshev_dominated_by_norm(atoms, alpha):
    psi = make_family("logbump").make(3.0)
    f = SimpleFunction(tuple(atoms), INF)
    bound = chebyshev_bound(psi, f, alpha)
    assert bound <= luxemburg_norm(psi, f).norm * (1.0 + 1e-10)


def lognormal_function(n, seed):
    rng = random.Random(seed)
    return SimpleFunction(tuple((rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
                                for _ in range(n)), INF)


@pytest.mark.parametrize("q", [2.0, 4.0, 64.0])
def test_array_path_power_closed_form(q):
    f = lognormal_function(1000, 7)
    want = math.fsum(m * a ** q for a, m in f.atoms) ** (1.0 / q)
    assert luxemburg_norm(power_family().make(q), f).norm == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [31, 32])
@pytest.mark.parametrize("spec,q", [("power", 4.0), ("logbump:p=2", 64.0),
                                    ("addie:N=2", 16.0), ("sinpiecewise", 33.0)])
def test_paths_agree_at_cutoff(monkeypatch, spec, q, n):
    """The scalar loop and the array pass agree on both sides of the cut-off."""
    psi = make_family(spec).make(q)
    f = lognormal_function(n, n)
    array_passes = []
    evaluate = YoungFunction.evaluate

    def spy(self, ts):
        array_passes.append(len(ts))
        return evaluate(self, ts)
    monkeypatch.setattr(YoungFunction, "evaluate", spy)

    default = (modular(psi, f, 2.0), luxemburg_norm(psi, f).norm)
    assert bool(array_passes) == (n == 32)
    array_passes.clear()
    monkeypatch.setattr(luxemburg, "_ARRAY_MIN_ATOMS", 1 if n == 31 else n + 1)
    other = (modular(psi, f, 2.0), luxemburg_norm(psi, f).norm)
    assert bool(array_passes) == (n == 31)
    for a, b in zip(default, other):
        assert a == pytest.approx(b, rel=n * 2.0 ** -52, abs=0.0)


@pytest.mark.parametrize("n", [1, 32])
def test_nan_modular_raises(n):
    psi = YoungFunction(lambda t: math.nan, "nan", {})
    with pytest.raises(ArithmeticError):
        modular(psi, lognormal_function(n, 0), 1.0)
