"""Norm solver: closed-form oracles, modular laws, inequality invariants."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orlicz.luxemburg as luxemburg
from orlicz import (
    BracketError,
    DomainError,
    MeasureSpace,
    SimpleFunction,
    YoungFamily,
    chebyshev_bound,
    identity_family,
    indicator_norm,
    luxemburg_norm,
    make_family,
    modular,
    power_family,
    powerlog_e_family,
)

from conftest import CATALOG_SPECS

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


@pytest.mark.parametrize("n", [1, 40])
@pytest.mark.parametrize("lam", [1e-308, 5e-324])
def test_modular_overflowing_argument_is_inf(n, lam):
    """``a / lam`` beyond the double range is a term of ``+inf``, on the
    scalar loop (1 atom) and the array pass (40 atoms) alike."""
    f = SimpleFunction(tuple((float(a), 1.0) for a in range(1, n + 1)), INF)
    assert modular(power_family().make(2.0), f, lam) == math.inf


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
    assert math.nextafter(lo, math.inf) == hi
    # ITP's one probe of slack over bisection: at most 64, not 63, from [0, inf]
    assert 0 < result.iterations <= 64


@pytest.mark.parametrize("spec,q", [("power", 2.0), ("logbump:p=2", 64.0),
                                    ("sinpiecewise", 33.0)])
def test_norm_reuses_its_probes(probes, spec, q):
    # The two ends of the bracket were probed by the search: their modulars
    # are not evaluated again, so every evaluation is a counted step.
    result = luxemburg_norm(make_family(spec).make(q), two_atom())
    lams = [lam for lam, _ in probes.take()]
    assert len(lams) == result.iterations
    assert set(result.bracket) <= set(lams)


@pytest.mark.parametrize("spec", [s for s in CATALOG_SPECS if s != "powerlog_e"])
def test_large_q_norm_closes_from_the_sup(spec):
    # The paper's limit: for these members ||f|| -> ||f||_inf as q grows,
    # and by q = 2**16 the norm of f = {2 on mass 1, 1 on mass 3} is 2.0 to
    # the double.  The first probe, ||f||_inf, and the jump from it close
    # the bracket; from the midpoint the search took 16-67 evaluations.
    f = SimpleFunction(((2.0, 1.0), (1.0, 3.0)), INF)
    family = make_family(spec)
    for q in (2.0 ** k for k in range(16, 37, 4)):
        result = luxemburg_norm(family.make(q), f)
        assert result.norm == 2.0 and result.iterations <= 3, (q, result)


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
    # Each mass is finite, but {f >= 0.5} holds both and their sum is not.
    f = SimpleFunction(((2.0, 1e308), (1.0, 1e308)), INF)
    with pytest.raises(OverflowError, match="0.5"):
        chebyshev_bound(psi, f, 0.5)
    assert chebyshev_bound(psi, f, 1.5) == pytest.approx(1.5e154, rel=1e-12)


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
    psi_array = YoungFamily._psi_array

    def spy(self, ts, qs, zeros):
        array_passes.append(len(ts))
        return psi_array(self, ts, qs, zeros)
    monkeypatch.setattr(YoungFamily, "_psi_array", spy)

    default = (modular(psi, f, 2.0), luxemburg_norm(psi, f).norm)
    assert bool(array_passes) == (n == 32)
    array_passes.clear()
    monkeypatch.setattr(luxemburg, "_ARRAY_MIN_ATOMS", 1 if n == 31 else n + 1)
    other = (modular(psi, f, 2.0), luxemburg_norm(psi, f).norm)
    assert bool(array_passes) == (n == 31)
    for a, b in zip(default, other):
        assert a == pytest.approx(b, rel=n * 2.0 ** -52, abs=0.0)


def test_array_pass_pins_psi_at_zero(monkeypatch):
    # An array formula that is NaN at 0, and a smallest value / lam that
    # underflows to 0: only the kernel's zero rule keeps the sum a number.
    family = YoungFamily("nan-at-0", lambda t, q: t ** q, {}, q_min=1.0,
                         array_fn=lambda t, q: np.where(t > 0.0, t ** q, np.nan))
    psi = family.make(2.0)
    f = SimpleFunction(tuple((float(a), 1.0) for a in range(1, 40)) + ((5e-324, 1.0),), INF)
    assert f.atoms[-1][0] / 2.0 == 0.0
    array_pass = modular(psi, f, 2.0)
    monkeypatch.setattr(luxemburg, "_ARRAY_MIN_ATOMS", 41)
    assert array_pass == modular(psi, f, 2.0) == math.fsum(a * a for a in range(1, 40)) / 4


@pytest.mark.parametrize("n", [1, 32])
def test_nan_modular_raises(n):
    psi = YoungFamily("nan", lambda t, q: math.nan, {}, q_min=0.0).make(1.0)
    with pytest.raises(ArithmeticError):
        modular(psi, lognormal_function(n, 0), 1.0)


@pytest.mark.parametrize("spec,q,atoms", [
    # norm above the largest double: the upper bracket doubles to inf
    ("logbump", 16.0, ((1.900779840119371e+279, 3.6026157030657704e-09),
                       (8.721658367086122e+250, 8.160977779935241e+197))),
    # norm below the smallest subnormal: the seeded upper bracket is 0
    ("logbump:p=2", 32.0, ((7.5613262105672314e-270, 8.681781245700942e-189),)),
])
def test_norm_outside_double_range_is_bracket_error(spec, q, atoms):
    # Not DomainError: the input is valid, its norm is not representable.
    with pytest.raises(BracketError, match="outside the double range"):
        luxemburg_norm(make_family(spec).make(q), SimpleFunction(atoms, INF))


# ------------------------------------------------ terms beyond the double range

def _subnormal_atoms(n):
    return SimpleFunction(tuple((1.0 + i, 1e-310) for i in range(n)), INF)


@pytest.mark.parametrize("n", [1, 40])
def test_subnormal_mass_overflow_is_undecided(n):
    # m * psi can stay below 1 where psi overflows when m < 1/DBL_MAX: read
    # as +inf, these gave 7.458e-155 and 2.983e-153 (true 1e-155 and 1.49e-153).
    with pytest.raises(OverflowError, match=r"^power\[q=2\]: .* mass 1e-310$"):
        luxemburg_norm(power_family().make(2.0), _subnormal_atoms(n))


def test_normal_mass_decides_overflowed_subnormal_term():
    # psi(3 / lam) overflows before 1e-300 * psi(1 / lam) falls to 1
    f = SimpleFunction(((3.0, 4e-320), (1.0, 1e-300)), INF)
    assert luxemburg_norm(power_family().make(2.0), f).norm == pytest.approx(1e-150, rel=1e-15)


def test_reciprocal_mass_beyond_double_range():
    psi = power_family().make(2.0)
    with pytest.raises(OverflowError, match="beyond the double range"):
        indicator_norm(psi, 1e-310)
    with pytest.raises(OverflowError, match="beyond the double range"):
        chebyshev_bound(psi, SimpleFunction(((1.0, 1e-310),), INF), 1.0)


def test_norm_of_a_mass_near_the_largest_double_overflows():
    # 1/mass is subnormal, and so is its inverse under t: both calls
    # returned inf, which for the bound is above the norm, 1.7976931348623153e308.
    big = sys.float_info.max
    with pytest.raises(OverflowError, match=r"^the norm is beyond the double range "
                                            r"for mass=1\.7976931348623157e\+308$"):
        indicator_norm(identity_family().make(1.0), big)
    with pytest.raises(OverflowError, match=r"^the bound is beyond the double range "
                                            r"for mu\(\|f\| >= 1\.0\)=1\.79"):
        chebyshev_bound(power_family().make(1.0), SimpleFunction(((1.0, big),), INF), 1.0)


def _oracle_modular(psi, f, lam):
    """The modular as two loops: the scalar loop or the checked one-column grid,
    each handing an overflowed term or sum to :func:`_oracle_overflowed`."""
    lam = float(lam)
    if math.isnan(lam) or math.isinf(lam) or lam <= 0.0:
        raise DomainError(f"lambda must be positive and finite, got {lam!r}")
    if f.atoms and f.atoms[0][0] / lam == math.inf:
        return _oracle_overflowed(psi, f, lam)
    if len(f.atoms) >= luxemburg._ARRAY_MIN_ATOMS:
        with np.errstate(over="ignore", under="ignore"):
            total = float(f.masses @ psi.family.evaluate_grid(f.values / lam, (psi.q,))[:, 0])
        if total == math.inf:
            return _oracle_overflowed(psi, f, lam)
    else:
        total = 0.0
        for value, mass in f.atoms:
            term = mass * psi.family._psi(value / lam, psi.q)
            if math.isinf(term):
                return _oracle_overflowed(psi, f, lam)
            total += term
    if math.isnan(total):
        raise ArithmeticError(f"{psi.label}: modular at lambda={lam!r} is NaN")
    return total


def _oracle_overflowed(psi, f, lam):
    rest, tiny = 0.0, None
    for value, mass in f.atoms:
        t = value / lam
        term = mass * psi.family._psi(t, psi.q) if t < math.inf else math.inf
        if term != math.inf:
            rest += term
        elif mass * sys.float_info.max >= 1.0:
            return math.inf
        else:
            tiny = mass
    if tiny is not None and rest <= 1.0:
        raise OverflowError(f"{psi.label}: the modular at lambda={lam!r} is beyond the "
                            f"double range: psi overflows on an atom of mass {tiny!r}")
    return math.inf


def _outcome(call, *args):
    try:
        return repr(call(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


# Log-uniform positive doubles, 5e-324 up to the largest exponent below 1e308
# (or, for lam, the largest double), with both ends of the range mixed in.
def _doubles(top_exponent, top):
    return st.one_of(st.sampled_from([5e-324, top]),
                     st.tuples(st.floats(1.0, 2.0, exclude_max=True),
                               st.integers(-1074, top_exponent))
                     .map(lambda me: max(math.ldexp(*me), 5e-324)))


# addie at N = 1 skips the 1.0 * e pass of its array form, addie:N=3,p=2
# keeps its lower ** p pass, and sinpiecewise at q = 4 has a middle exponent
# 2 + sin 4 far from 3.
_MEMBERS = [("power", 2.0), ("power", 4096.0), ("logbump:p=2", 64.0), ("iterlog:N=2", 16.0),
            ("addie", 8.0), ("addie:N=2", 4096.0), ("addie:N=3,p=2", 16.0),
            ("sinpiecewise", 4.0), ("sinpiecewise", 33.0), ("powerlog_e", 4.0),
            ("identity", 1.0)]


@given(st.sampled_from(_MEMBERS), st.sampled_from([1, 31, 32, 40]), st.data())
@settings(max_examples=80, deadline=None)
def test_modular_agrees_with_two_loop_oracle(member, n, data):
    """The one loop and the array pass give the oracle's value, or its
    exception and message, across the double range on both sides of the
    array cut-off.  ``lam`` is drawn from the whole range, or is one of the
    values, which keeps more of the sums finite.  Where the norm is a
    double, the solver's modular at it is the public call's, bit for bit:
    the two share one kernel."""
    psi = make_family(member[0]).make(member[1])
    values = data.draw(st.lists(_doubles(1022, 1e308), min_size=n, max_size=n, unique=True))
    masses = data.draw(st.lists(_doubles(1022, 1e308), min_size=n, max_size=n))
    lam = data.draw(st.one_of(_doubles(1023, sys.float_info.max), st.sampled_from(values)))
    f = SimpleFunction(tuple(zip(values, masses)), INF)
    assert _outcome(modular, psi, f, lam) == _outcome(_oracle_modular, psi, f, lam)
    try:
        result = luxemburg_norm(psi, f)
    except ArithmeticError:  # a norm outside the double range, or undecidable
        return
    assert repr(result.modular_at_norm) == repr(modular(psi, f, result.norm))
