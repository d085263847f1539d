"""Young-function evaluation, inversion, the Young-axiom check and the family parser."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    BracketError,
    DomainError,
    FamilySpecError,
    MeasureSpace,
    SimpleFunction,
    YoungFamily,
    YoungFunction,
    classify,
    identity_family,
    iterlog_family,
    logbump_family,
    luxemburg_norm,
    make_family,
    modular,
    power_family,
    powerlog_e_family,
    sinpiecewise_family,
)
from orlicz.admissibility import (
    _DOUBLINGS, _PHASE_I_MAX, _T_GRID, _Y_GRID, _check_young, _geometric_schedule,
    _parity_schedules, _scans)
from orlicz import young
from orlicz.young import E_MINUS_1, _anchor_constant

from conftest import CATALOG_SPECS

E_E_MINUS_1 = 14.154262241479262  # exp(e) - 1, the two-fold iterated-log anchor
EPS = np.finfo(float).eps
INF = MeasureSpace(math.inf)


def test_power_pointwise():
    assert power_family().make(2.0)(3.0) == 9.0


def test_logbump_unit_point():
    # log(e-1+1) = 1 makes the factor collapse at t=1 for every q
    assert logbump_family(1.0).make(5.0)(1.0) == pytest.approx(1.0, abs=1e-15)


def test_sinpiecewise_low_branch():
    assert sinpiecewise_family().make(4.0)(0.5) == pytest.approx(0.03125, abs=1e-16)


def _psi_array(psi: YoungFunction, ts) -> np.ndarray:
    """``psi`` over an array by the family's kernel, as the modular runs it:
    unchecked, told whether ``ts`` holds a 0."""
    ts = np.asarray(ts, dtype=float)
    return psi.family._psi_array(ts, psi.q, bool((ts == 0.0).any()))


def test_zero_maps_to_zero(catalog_family):
    psi = catalog_family.make(2.0)
    assert psi(0.0) == 0.0
    assert _psi_array(psi, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    assert _psi_array(psi, np.array([])).size == 0


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
    got = _psi_array(psi, PARITY_GRID)
    # One rounding in log or pow is amplified by the exponent it is raised to.
    rel = 8.0 * (psi.family.params.get("p", 1.0) + q + 1.0) * np.finfo(float).eps
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
        catalog_family.evaluate_grid(np.array([1.0, bad, 2.0]), (2.0,))


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
    bounded = YoungFamily("bounded", lambda t, q: min(t, 1.0), {}, q_min=0.0).make(1.0)
    with pytest.raises(BracketError):
        bounded.inverse(2.0)


# ------------------------------------------------------------ grid inverses

# A geometric scan from q = 1 with two doublings beyond a classify scan's,
# and every phase-locked q a classify may read: the parities of every start,
# k = 2^i and 2^i + 1 up to i = _PHASE_I_MAX.
Q_UNION = tuple(sorted(set(_geometric_schedule(1.0, _DOUBLINGS + 2)).union(
    *(p for j in range(_PHASE_I_MAX) for p in _parity_schedules(2.0 ** j)))))
GRID_YS = (0.0,) + _Y_GRID


def _psi_rel(psi: YoungFunction) -> float:
    """The array/scalar Psi bound of test_array_evaluation_matches_scalar.

    It bounds the inverses too: ``t psi'(t) / psi(t) >= 1`` for a Young
    function, so a relative error in psi moves its inverse by no more.
    """
    return 8.0 * (psi.family.params.get("p", 1.0) + psi.q + 1.0) * EPS


def _assert_smallest_root(psi_at, ys, ts):
    """``psi_at(t) >= y > psi_at(nextafter(t, 0))`` bitwise, cell by cell,
    for the evaluation ``psi_at`` of the path that solved ``ts``; ``y = 0``
    maps to 0."""
    ys, ts = np.asarray(ys, dtype=float), np.asarray(ts, dtype=float)
    assert (ts[ys == 0.0] == 0.0).all()
    with np.errstate(over="ignore", under="ignore"):
        at, before = psi_at(ts), psi_at(np.nextafter(ts, 0.0))
    pos = ys > 0.0
    assert (at[pos] >= ys[pos]).all() and (before[pos] < ys[pos]).all()


def _scalar_psi(psi: YoungFunction):
    return lambda ts: np.array([psi(t) for t in ts.tolist()])


@pytest.mark.parametrize("spec", CATALOG_SPECS + ("identity", "iterlog:N=3"))
def test_inverse_grid_matches_scalar(spec):
    family = make_family(spec)
    got = family.inverse_grid(GRID_YS, Q_UNION)
    # The grid's own psi: the family formula over the cells in the layout
    # the solver evaluates them in.
    ys, qs = np.repeat(GRID_YS, len(Q_UNION)), np.tile(Q_UNION, len(GRID_YS))
    _assert_smallest_root(lambda ts: family.array_fn(ts, qs), ys, got.ravel())
    for j, q in enumerate(Q_UNION):
        psi = family.make(q)
        want = [psi.inverse(y) for y in GRID_YS]
        _assert_smallest_root(_scalar_psi(psi), GRID_YS, want)
        np.testing.assert_allclose(got[:, j], want, rtol=_psi_rel(psi), atol=0.0)


def test_inverse_grid_domain():
    family = power_family()
    assert family.inverse_grid([0.0, 4.0], [2.0]).tolist() == [[0.0], [2.0]]
    assert family.inverse_grid([], [2.0]).shape == (0, 1)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            family.inverse_grid([1.0, bad], [2.0])
    for bad_q in (0.5, math.nan, math.inf):  # power requires q >= 1
        with pytest.raises(DomainError):
            family.inverse_grid([1.0], [2.0, bad_q])


def test_inverse_exact_at_tiny_y():
    # The old doubling-from-[0, 1] bracket stopped at a relative width of
    # 1e-12 of its upper end and returned 6.2e-61 here.
    assert power_family().make(1.0).inverse(1e-100) == 1e-100
    assert power_family().make(1.0).inverse(5e-324) == 5e-324


@pytest.mark.parametrize("y", [5e-324, 1e-300, 0.75, 2.0, 1e300, 1.7976931348623157e308])
def test_scalar_inverse_psi_calls(y):
    calls = []

    def fn(t, q):
        calls.append(t)
        return t ** 3.0
    YoungFamily("cube", fn, {}, q_min=0.0).make(1.0).inverse(y)
    # From [0, inf]: bisection's _STEPS (63), ITP's _N0 probe of slack, and
    # one probe for each convexity jump or stall step, taken outside that budget.
    assert 0 < len(calls) <= young._STEPS + young._N0 + young._JUMPS


def test_inverse_grid_array_calls():
    # Every cell bisects the bit patterns of [0, inf] in lockstep: one
    # evaluation of the family formula per step, 63 steps, at any scale,
    # then one at the upper ends that checks them for NaN.
    family = make_family("logbump:p=2")
    calls = []

    def counted(t, q):
        calls.append(t.size)
        return family.array_fn(t, q)
    ys, qs = (0.0, 1e-300, 0.5, 2.0, 1e300), (0.5, 8.0, 4096.0)
    family._replace(array_fn=counted).inverse_grid(ys, qs)
    assert calls == [len(ys) * len(qs)] * 64


def _bounded_family(array_form: bool) -> YoungFamily:
    return YoungFamily("bounded", lambda t, q: min(t, 1.0), {}, q_min=0.0,
                       array_fn=(lambda t, q: np.minimum(t, 1.0)) if array_form else None)


@pytest.mark.parametrize("array_form", [True, False])
def test_inverse_grid_unbracketable(array_form):
    # The bounded member of test_inverse_unbracketable, through a grid and
    # its one-column case: the scalar path's error, message and all.
    family = _bounded_family(array_form)
    with pytest.raises(BracketError) as scalar:
        family.make(1.0).inverse(2.0)
    with pytest.raises(BracketError) as grid:
        family.inverse_grid([0.5, 2.0], [1.0, 3.0])
    with pytest.raises(BracketError) as column:
        family.inverse_grid(np.array([0.5, 2.0]), [1.0])
    assert str(grid.value) == str(column.value) == str(scalar.value)


def _nan_gap_family(array_form: bool) -> YoungFamily:
    """``t**q`` with a NaN hole on (1e-3, 1.9), below the root 2 of ``y = 4`` at q = 2."""
    return YoungFamily(
        "nan-gap", lambda t, q: math.nan if 1e-3 < t < 1.9 else t ** q, {}, q_min=1.0,
        array_fn=(lambda t, q: np.where((t > 1e-3) & (t < 1.9), np.nan, t ** q))
        if array_form else None)


def test_inverse_nan_psi_raises():
    # Read as "at or above y", the NaN hole gave 0.001 here with no error.
    with pytest.raises(ArithmeticError, match=r"^nan-gap\[q=2\]: psi\(.*\) is NaN$") as err:
        _nan_gap_family(False).make(2.0).inverse(4.0)
    t = float(str(err.value).split("psi(")[1].split(")")[0])
    assert 1e-3 < t < 1.9
    assert not isinstance(err.value, BracketError)


@pytest.mark.parametrize("array_form", [True, False])
def test_inverse_grid_nan_psi_raises(array_form):
    family = _nan_gap_family(array_form)
    with pytest.raises(ArithmeticError, match=r"^nan-gap\[q=2\]: psi\(.*\) is NaN$"):
        family.inverse_grid([4.0], [2.0])
    with pytest.raises(ArithmeticError, match=r"^nan-gap\[q=3\]: "):
        family.inverse_grid([0.0, 5e-324, 4.0], [3.0])  # the failing cell is named


def test_inverse_grid_ignores_nan_that_decides_no_cell():
    # The raw array form is NaN on (40, 60), above every root: the walk tries
    # t = 48 on its way down to the root 36 at q = 1, and moves below it.
    hits = []

    def array_fn(t, q):
        hole = (t > 40.0) & (t < 60.0)
        hits.append(int(hole.sum()))
        return np.where(hole, np.nan, t ** q)
    family = YoungFamily("nan-holes", lambda t, q: t ** q, {}, q_min=1.0, array_fn=array_fn)
    ys, qs = (0.0, 5e-324, 1e-320, 2.0, 36.0), (1.0, 2.0)
    want = [[family.make(q).inverse(y) for q in qs] for y in ys]
    assert family.inverse_grid(ys, qs).tolist() == want
    assert sum(hits) > 0


def _bisect_oracle(family: YoungFamily, ys, qs) -> np.ndarray:
    """The lockstep bisection that ``inverse_grid`` ran before its bit walk:
    it halves each cell's bracket of patterns, and a closed bracket (whose
    midpoint is its lower end, possibly t = 0) keeps it.  Same errors."""
    ys, qs = np.asarray(ys, dtype=float), [float(q) for q in qs]
    shape = ys.size, len(qs)
    ys, q_cells = np.repeat(ys, len(qs)), np.tile(qs, ys.size)
    lo = np.zeros(ys.shape, dtype=np.int64)
    hi = np.full(ys.shape, young._INF_BITS, dtype=np.int64)

    def label(cell: int) -> str:
        return YoungFunction(family, float(q_cells[cell])).label
    psi = family._array_formula()
    with np.errstate(all="ignore"):
        for _ in range(young._STEPS):
            mid = lo + ((hi - lo) >> 1)
            below = (psi(mid.view(float), q_cells) < ys) | (mid == lo)
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        unbounded = np.flatnonzero(hi == young._INF_BITS)
        if unbounded.size:
            raise young._no_upper_bracket(label(unbounded[0]), float(ys[unbounded[0]]))
        ts = hi.view(float)
        nan = np.flatnonzero(np.isnan(psi(ts, q_cells)) & (ys > 0.0))
        if nan.size:
            raise young._nan_psi(label(nan[0]), float(ts[nan[0]]))
    return np.where(ys == 0.0, 0.0, ts).reshape(shape)


def _outcome(solve, family, ys, qs):
    """The cells ``solve`` gives, or the type and message of what it raises."""
    try:
        return solve(family, ys, qs).tolist()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


ORACLE_YS = (0.0, 5e-324, 1e-320, 1e-300, 0.5, 2.0, 1e300, 1.7976931348623157e308)
ORACLE_QS = (0.5, 1.0, 2.5, 64.0, 4096.0, 2.0 ** 20, 2.0 ** 40)


@pytest.mark.parametrize("spec", CATALOG_SPECS + ("identity", "iterlog:N=3", "addie:N=3"))
def test_inverse_grid_equals_bisection(spec):
    family = make_family(spec)
    rng = np.random.default_rng(2209)
    ys = ORACLE_YS + tuple((10.0 ** rng.uniform(-320.0, 308.0, 24)).tolist())
    qs = [q for q in ORACLE_QS if family.admits(q)]
    zeros = []

    def recorded(t, q):
        zeros.append(bool((t == 0.0).any()))
        return family.array_fn(t, q)
    got = family._replace(array_fn=recorded).inverse_grid(ys, qs)
    assert np.array_equal(got, _bisect_oracle(family, ys, qs))
    assert zeros and not any(zeros)  # the walk never evaluates psi at t = 0
    plain = family._replace(array_fn=None)
    assert np.array_equal(plain.inverse_grid(ys[::3], qs), _bisect_oracle(plain, ys[::3], qs))


def _fmin_family(array_form: bool) -> YoungFamily:
    """``min(t, 1)``, whose array form ``np.fmin`` is 1 on the NaN patterns too."""
    return YoungFamily("fmin", lambda t, q: min(t, 1.0), {}, q_min=0.0,
                       array_fn=(lambda t, q: np.fmin(t, 1.0)) if array_form else None)


@pytest.mark.parametrize("array_form", [True, False])
@pytest.mark.parametrize("make", [_bounded_family, _nan_gap_family, _fmin_family])
def test_inverse_grid_errors_equal_bisection(make, array_form):
    # Every y is at most psi_q(2) of the NaN-gap family at these q; above it
    # the walk and the bisection part (the next test).
    family = make(array_form)
    ys, qs = (0.0, 5e-324, 0.5, 1.0, 2.0, 4.0), (2.0, 3.0)
    for rows in [ys] + [(y,) for y in ys]:
        assert (_outcome(YoungFamily.inverse_grid, family, rows, qs)
                == _outcome(_bisect_oracle, family, rows, qs)), rows


@pytest.mark.parametrize("array_form", [True, False])
def test_inverse_grid_solves_above_a_nan_gap_it_never_meets(array_form):
    # The walk's first probe is t = 2, above the NaN hole (1e-3, 1.9).  Where
    # psi(2) < y it never enters the hole, and each cell is the smallest t
    # with psi(t) >= y (a NaN is not >= y).  The bisection's first probe, 1.5,
    # lands in the hole, and it raises there.
    family = _nan_gap_family(array_form)
    ys, qs = (8.5, 10.0, 1e300), (1.0, 2.0, 3.0)
    got = family.inverse_grid(ys, qs)
    for y, row in zip(ys, got.tolist()):
        for q, t in zip(qs, row):
            assert t ** q >= y > math.nextafter(t, 0.0) ** q and t > 2.0, (y, q, t)
            with pytest.raises(ArithmeticError, match=r"psi\(0.0010000000000000002\) is NaN"):
                _bisect_oracle(family, (y,), (q,))


def test_grids_fall_back_without_array_form():
    family = logbump_family(2.0)
    plain = family._replace(array_fn=None)
    ys, qs = (0.0, 0.02, 2.0, 1e6), (0.5, 8.0, 4096.0)
    want = [[family.make(q).inverse(y) for q in qs] for y in ys]
    assert plain.inverse_grid(ys, qs).tolist() == want
    ts = np.array(PARITY_GRID)
    assert np.array_equal(plain.evaluate_grid(ts, qs),
                          np.array([_psi_array(plain.make(q), ts) for q in qs]).T)


@pytest.mark.parametrize("spec", CATALOG_SPECS + ("identity",))
def test_inverse_array_matches_scalar(spec):
    # The one-column grid: the scalar inverse over an array of y.
    psi = make_family(spec).make(8.0)
    ys = np.array(GRID_YS + (0.5, 1e6))
    want = [psi.inverse(y) for y in ys.tolist()]
    got = psi.family.inverse_grid(ys, (psi.q,))[:, 0]
    _assert_smallest_root(lambda ts: psi.family.array_fn(ts, psi.q), ys, got)
    np.testing.assert_allclose(got, want, rtol=_psi_rel(psi), atol=0.0)
    # without an array form every element is the scalar solve
    plain = psi.family._replace(array_fn=None)
    assert plain.inverse_grid(ys, (psi.q,))[:, 0].tolist() == want
    with pytest.raises(DomainError):
        psi.family.inverse_grid(np.array([1.0, -1.0]), (psi.q,))


@pytest.mark.parametrize("spec", CATALOG_SPECS + ("identity", "iterlog:N=3"))
def test_evaluate_grid_matches_scalar(spec):
    family = make_family(spec)
    qs = (1.0, 4.0, 64.0, 4096.0)
    got = family.evaluate_grid(np.array(PARITY_GRID), qs)
    assert got.shape == (len(PARITY_GRID), len(qs))
    for j, q in enumerate(qs):
        psi = family.make(q)
        # the bound of test_array_evaluation_matches_scalar
        rel = 8.0 * (psi.family.params.get("p", 1.0) + q + 1.0) * np.finfo(float).eps
        for t, a in zip(PARITY_GRID, got[:, j].tolist()):
            s = psi(t)
            if math.isinf(s):
                assert a == math.inf, (t, q, s, a)
            else:
                assert abs(a - s) <= rel * s, (t, q, s, a)
    with pytest.raises(DomainError):
        family.evaluate_grid([1.0, -1.0], qs)


# The array formulas before they skipped exact work: every power of the
# sinpiecewise bump, zero or not, and the chain's x ** 1.0 and 1.0 * e.
def _full_sinpiecewise(t, q):
    bump = np.maximum(2.0 * t - 1.0, 0.0)
    return 0.5 * (t ** q + bump ** np.where(t < 1.0, 2.0 + np.sin(q), 3.0))


def _full_chain(n, p, addie):
    r0, r1, r2 = (young._RECIPROCAL_ANCHORS[n - 1::-1] + (0.0, 0.0))[:3]

    def lower(t):
        return (1.0 if n == 1 else np.log(E_MINUS_1 + t) if n == 2
                else np.log(E_MINUS_1 + t) * np.log(np.log(E_E_MINUS_1 + t)))

    def array_fn(t, q):
        e = t - 1.0
        for r in (r0, r1, r2)[:n]:
            np.log1p(np.multiply(e, r, out=e), out=e)
        e = (p + q if addie else q) * np.log1p(e, out=e)
        np.exp(e, out=e)
        e *= t if p == 1.0 else t ** p
        return lower(t) ** p * e if addie else e
    return array_fn


_FULL_FORMULAS = {"sinpiecewise": _full_sinpiecewise, "iterlog:p=2": _full_chain(1, 2.0, False),
                  **{f"addie:N={n},p={p}": _full_chain(n, float(p), True)
                     for n in (1, 2, 3) for p in (1, 2)}}


@pytest.mark.parametrize("spec", sorted(_FULL_FORMULAS))
def test_array_forms_keep_every_bit_of_the_full_formulas(spec):
    """Skipping a power of a zero bump, ``x ** 1.0`` and ``1.0 * e`` changes
    no bit, sign of zero included, on each call shape of the package: one q
    over a 1-D ``t`` (the modular), flat ``t`` and ``q`` (the inverse walk)
    and a ``(n, 1) x (1, m)`` grid (``evaluate_grid``)."""
    new, full = make_family(spec).array_fn, _FULL_FORMULAS[spec]
    ts = np.array(sorted(PARITY_GRID + (math.nextafter(0.5, 0.0),)))
    qs = (1.0, 4.0, 33.0, 4096.0, math.pi / 2.0 + 2 ** 11 * math.pi,
          math.pi / 2.0 + (2 ** 11 + 1) * math.pi)
    shapes = [(ts, q) for q in qs] + [
        (np.repeat(ts, len(qs)), np.tile(qs, ts.size)), (ts.reshape(-1, 1), np.array([qs]))]
    with np.errstate(all="ignore"):
        for t, q in shapes:
            got, want = new(t.copy(), q), full(t.copy(), q)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (spec, q)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (spec, q)


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


def _check_on(family: YoungFamily, ts, qs) -> None:
    """The Young-axiom check of ``classify`` on the grid ``ts`` by ``qs``."""
    _check_young(family, ts, qs, family.evaluate_grid(ts, qs))


def _plan_qs(family: YoungFamily) -> list[float]:
    """Every q that ``classify`` may read on an infinite space: the slope
    columns, every probe's scan and both parities."""
    return _scans(family, _Y_GRID)[2]


def test_validate_catalog_clean(catalog_family):
    # every catalog member passes on every value grid classify may read
    _check_on(catalog_family, _T_GRID, _plan_qs(catalog_family))


def test_validate_power_on_ten_grid():
    _check_on(power_family(), [i / 10.0 for i in range(101)], (1.5,))


def test_validate_iterlog_wide_grid():
    _check_on(iterlog_family(2, 1.0), [i / 10.0 for i in range(1001)], (3.0,))  # [0, 100]


def test_validate_flags_concave_probe():
    sqrt = YoungFamily("sqrt", lambda t, q: math.sqrt(t), {}, q_min=0.0)
    with pytest.raises(DomainError, match=r"^sqrt\[q=1\]: not convex on t=0\.05, 0\.0602954, "
                                          r"0\.0727108$"):
        classify(sqrt, INF)


def _dip(t: float, q: float) -> float:
    """``t^q``, except ``0.1 t^q`` on ``[1, 2)``: neither increasing nor convex."""
    return 0.1 * t ** q if 1.0 <= t < 2.0 else t ** q


@pytest.mark.parametrize("space", [INF, MeasureSpace(2.0)])
def test_classify_rejects_a_member_that_is_not_increasing(space):
    # The inverse side alone would call this family delta_admissible.
    dip = YoungFamily("dip", _dip, {}, q_min=1.0)
    with pytest.raises(DomainError, match=r"^dip\[q=1\]: not increasing on t=0\.82925, 1$"):
        classify(dip, space)


@pytest.mark.parametrize("space", [INF, MeasureSpace(2.0)])
def test_young_check_covers_every_plan_q(space):
    # Only a probe left open by its scan would read k = 64 of the parities;
    # t^2 settles every probe on its geometric scan, yet the member there
    # is checked.
    parity_only = math.pi / 2.0 + 64 * math.pi
    assert parity_only in _plan_qs(power_family())
    assert parity_only in set().union(*_parity_schedules(1.0))

    def fn(t, q):
        return 1.0 / (1.0 + t) if q == parity_only else t * t
    square = classify(YoungFamily("square", lambda t, q: t * t, {}, q_min=1.0), space)
    for _, est in square.inverse_evidence + square.value_evidence:
        assert est.kind in ("finite", "zero") and parity_only not in dict(est.evidence)
    with pytest.raises(DomainError, match=r"^square-dip\[q=202\.633\]: not increasing on "
                                          r"t=0\.05, 0\.0602954$"):
        classify(YoungFamily("square-dip", fn, {}, q_min=1.0), space)


def test_young_check_skips_zero_inf_and_nan():
    ts = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    for column in ([0.0, 0.0, 1.0, math.nan, 0.5, math.inf, math.inf],
                   [1.0, 4.0, math.nan, 5.0, 6.0, math.inf, 1.0]):
        _check_young(power_family(), ts, (2.0,), np.array([column]).T)
    with pytest.raises(DomainError, match=r"^power\[q=2\]: not increasing on t=3, 4$"):
        _check_young(power_family(), ts, (2.0,), np.array([[0.0, 1.0, 2.0, 5.0, 4.0, 6.0, 9.0]]).T)


def test_array_evaluation_pins_zero():
    def shifted(t, q):
        return t + 1.0
    psi = YoungFamily("shifted", shifted, {}, q_min=0.0, array_fn=shifted).make(1.0)
    assert _psi_array(psi, [0.0, 1.0]).tolist() == [psi(0.0), psi(1.0)] == [0.0, 2.0]


def _exp_family(array_form: bool) -> YoungFamily:
    """``exp(q t)``: ``fn(0) = 1``, and ``fn`` raises :class:`OverflowError`
    above ``t = 709.78 / q`` where ``array_fn`` gives ``inf``."""
    return YoungFamily("exp", lambda t, q: math.exp(q * t), {}, q_min=0.0,
                       array_fn=(lambda t, q: np.exp(q * t)) if array_form else None)


@pytest.mark.parametrize("array_form", [True, False])
def test_every_path_pins_zero_and_maps_overflow_to_inf(array_form):
    family = _exp_family(array_form)
    psi = family.make(1.0)
    assert (psi(0.0), psi(1.0), psi(1000.0)) == (0.0, math.e, math.inf)
    ts = np.array([0.0, 1.0, 1000.0])
    assert _psi_array(psi, ts).tolist() == [0.0, math.e, math.inf]
    assert family.evaluate_grid(ts, (1.0, 2.0)).tolist() == [
        [0.0, 0.0], [math.e, family.make(2.0)(1.0)], [math.inf, math.inf]]
    # Every t above the last finite exp(t) overflows, so the smallest t with
    # psi(t) >= the largest double is the first overflowing one.
    big = sys.float_info.max
    got = family.inverse_grid([0.0, 1e300, big], (1.0, 2.0))
    for q, column in zip((1.0, 2.0), got.T.tolist()):
        member = family.make(q)
        assert column[0] == 0.0
        assert column[1:] == pytest.approx([member.inverse(1e300), member.inverse(big)],
                                           rel=EPS, abs=0.0)
        assert member(column[2]) == math.inf
    # Each value over lam underflows to 0 (psi 0, not fn(0) = 1) or overflows.
    for n in (1, 32):
        tiny = SimpleFunction(tuple((5e-324 * (k + 1), 1.0) for k in range(n)), INF)
        huge = SimpleFunction(tuple((1000.0 + k, 1.0) for k in range(n)), INF)
        assert (modular(psi, tiny, 1e10), modular(psi, huge, 1.0)) == (0.0, math.inf)


def test_solvers_skip_the_checked_call(monkeypatch):
    calls = []
    call = YoungFunction.__call__

    def counted(self, t):
        calls.append(t)
        return call(self, t)
    monkeypatch.setattr(YoungFunction, "__call__", counted)
    psi = make_family("logbump:p=2").make(8.0)
    f = SimpleFunction(((3.0, 0.5), (2.0, 1.0), (1e-300, 2.0)), INF)
    luxemburg_norm(psi, f)
    psi.inverse(2.0)
    psi.family.inverse_grid([0.5, 2.0], (1.0, 8.0))
    psi.family._replace(array_fn=None).inverse_grid([0.5, 2.0], (1.0, 8.0))
    assert calls == []
    psi(1.0)  # the counter is live
    assert calls == [1.0]


def test_identity_family_not_strict():
    # linear: equal chord slopes, convex but not strictly, and accepted
    fam = identity_family()
    assert fam.make(7.0)(3.5) == 3.5
    _check_on(fam, _T_GRID, _plan_qs(fam))


@pytest.mark.parametrize("q", [0.5, 1.0, 7.0, 64.0, 4096.0, 1e5])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("name", ["iterlog", "addie"])
def test_unit_point_exact(name, N, p, q):
    """``psi_q(1) == 1`` exactly on every path: with the closed-form anchors
    ``c_j + 1 = exp^j(1)``, each ``L_j(c_j + 1)`` is exactly 1.0 in doubles,
    so no power of it drifts with q."""
    family = make_family(f"{name}:N={N},p={p}")
    psi = family.make(q)
    assert psi(1.0) == 1.0
    assert _psi_array(psi, [1.0]).tolist() == [1.0]
    assert family.evaluate_grid([1.0], [q]).tolist() == [[1.0]]


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


@pytest.mark.parametrize("spec,message", [
    ("", "family spec must be a non-empty string, got ''"),
    (None, "family spec must be a non-empty string, got None"),
    ("logbump:", "trailing ':' in family spec 'logbump:'"),
    ("logbump:p=two", "p must be a real number, got 'two'"),
    ("iterlog:N=2.5", "N must be an integer, got '2.5'"),
])
def test_parser_names_the_fault(spec, message):
    with pytest.raises(FamilySpecError) as info:
        make_family(spec)
    assert str(info.value) == message


def test_family_q_domain_enforced(catalog_family):
    with pytest.raises(DomainError):
        catalog_family.make(-1.0)


def test_member_labels_carry_parameters():
    psi = make_family("logbump:p=2").make(8.0)
    assert "p=2" in psi.label and "q=8" in psi.label


@pytest.mark.parametrize("spec,label", [
    ("power", "power[q=4]"),
    ("logbump:p=2", "logbump[p=2,q=4]"),
    ("iterlog:N=2", "iterlog[N=2,p=1,q=4]"),
    ("addie:N=3", "addie[N=3,p=1,q=4]"),
    ("sinpiecewise", "sinpiecewise[q=4]"),
    ("powerlog_e", "powerlog_e[p=1,q=4]"),
    ("identity", "identity[q=4]"),
])
def test_catalog_member_labels(spec, label):
    psi = make_family(spec).make(4.0)
    assert psi.label == label
    assert (psi.family.label, psi.q) == (spec.partition(":")[0], 4.0)
