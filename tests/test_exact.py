"""Inverses and norms over the whole double range against mpmath at 50 digits.

The reference evaluates each catalog formula as documented, with the exact
constants ``e - 1`` and ``c_N = exp^N(1) - 1``, independently of the
package's double-precision helpers.  An answer passes when the exact root
lies within the Psi rounding bound of it; for a Young function
``t psi'(t) / psi(t) >= 1``, so an inverse or a norm is off by no more than
psi is.  For the log families, whose members are anchored log1p chains, the
bound at ``t`` is ``8 (p + 1 + |log psi_q(t) - p log t|) eps``: it grows
with the log of the factor that q raises, not with q, and holds to q = 2^30
and N = 3.  For ``power`` and ``sinpiecewise`` it is ``8 (p + q + 1) eps``.
A norm's bound is that of its atoms, weighted by their shares of the
modular.  The only allowed refusal is :class:`BracketError`, and only when
the exact answer lies outside the normal double range.
"""

import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from orlicz import (
    BracketError,
    MeasureSpace,
    SimpleFunction,
    indicator_norm,
    luxemburg_norm,
    make_family,
    power_family,
)
from orlicz import young

from conftest import CATALOG_SPECS

INF = MeasureSpace(math.inf)
EPS = sys.float_info.epsilon
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max
DPS = 50


def _iter_log(x, n):
    for _ in range(n):
        x = mpmath.log(x)
    return x


def _anchor(n):
    x = mpf(1)
    for _ in range(n):
        x = mpmath.exp(x)
    return x - 1


def exact_psi(spec, q):
    """The member ``psi_q`` of the catalog family ``spec`` over mpf."""
    name, _, rest = spec.partition(":")
    params = dict(item.split("=") for item in rest.split(",") if item)
    p, N, q = mpf(params.get("p", 1)), int(params.get("N", 1)), mpf(q)
    if name == "power":
        return lambda x: x ** q
    if name == "logbump":
        return lambda x: x ** p * mpmath.log(mpmath.e - 1 + x) ** q
    if name == "powerlog_e":
        return lambda x: x ** p * mpmath.log(mpmath.e + x) ** q
    if name == "iterlog":
        c = _anchor(N)
        return lambda x: x ** p * _iter_log(c + x, N) ** q
    if name == "addie":
        cs = [_anchor(j) for j in range(1, N + 1)]

        def addie(x):
            base = x
            for j, c in enumerate(cs, start=1):
                base *= _iter_log(c + x, j)
            return base ** p * _iter_log(cs[-1] + x, N) ** q
        return addie
    if name == "sinpiecewise":
        s = 2 + mpmath.sin(q)

        def sinpiecewise(x):
            if x <= mpf(0.5):
                return x ** q / 2
            if x < 1:
                return (x ** q + (2 * x - 1) ** s) / 2
            return (x ** q + (2 * x - 1) ** 3) / 2
        return sinpiecewise
    raise ValueError(spec)


CHAINED = ("logbump", "iterlog", "addie", "powerlog_e")
SPECS = CATALOG_SPECS + ("iterlog:N=3", "addie:N=3")
QS = (1.0, 2.5, 4.0, 33.0, 256.0, 4096.0)
LARGE_QS = (2.0 ** 16, 2.0 ** 20, 2.0 ** 24, 2.0 ** 30)


def rel(spec, q, exact, x):
    """The relative rounding bound of the package's psi_q at ``x``: with
    ``exact`` the reference member, ``8 (p + 1 + |log psi_q(x) - p log x|) eps``
    for a log family and ``8 (p + q + 1) eps`` otherwise."""
    p = make_family(spec).params.get("p", 1.0)
    if spec.partition(":")[0] not in CHAINED:
        return 8.0 * (p + q + 1.0) * EPS
    x = mpf(x)
    return 8.0 * (p + 1.0 + float(abs(mpmath.log(exact(x)) - p * mpmath.log(x)))) * EPS


def norm_rel(spec, q, exact, atoms, lam):
    """:func:`rel` of the modular at ``lam``: the atoms' bounds weighted by
    their shares of the modular, which is how their errors add up."""
    lam = mpf(lam)
    terms = [(mpf(m) * exact(mpf(a) / lam), mpf(a) / lam) for a, m in atoms]
    total = mpmath.fsum(w for w, _ in terms)
    return float(mpmath.fsum(w * rel(spec, q, exact, x) for w, x in terms) / total)


MEMBERS = st.one_of(st.tuples(st.sampled_from(SPECS), st.sampled_from(QS)),
                    st.tuples(st.sampled_from([s for s in SPECS
                                               if s.partition(":")[0] in CHAINED]),
                              st.sampled_from(LARGE_QS)))
# m * 10^e with e in -300..300: every magnitude a JSON input may carry.
WIDE = st.builds(lambda m, e: float(mpf(m) * mpf(10) ** e),
                 st.floats(min_value=1.0, max_value=9.99), st.integers(-300, 300))


def _modular(member, atoms, lam):
    lam = mpf(lam)
    return mpmath.fsum(mpf(m) * member(mpf(a) / lam) for a, m in atoms)


@given(MEMBERS, WIDE)
@settings(max_examples=200, deadline=None)
def test_inverse_against_mpmath(member, y):
    spec, q = member
    t = make_family(spec).make(q).inverse(y)
    with mpmath.workdps(DPS):
        exact = exact_psi(spec, q)
        r = rel(spec, q, exact, t)
        # psi increases, so the exact root lies in [t (1 - r), t (1 + r)]
        assert exact(mpf(t) * (1 - r)) <= y <= exact(mpf(t) * (1 + r)), (spec, q, y, t)


@given(MEMBERS, WIDE)
# Masses near the largest double: 1 / 4e307 is a normal level, those of the
# larger masses are subnormal but within 2^-1075 / 5.6e-309 = 4.4e-16 of
# 1 / mass, and every norm resolves.  Only a norm that overflows raises.
@example(("power", 1.0), 4e307)
@example(("power", 1.0), 1.7e308)
@example(("logbump", 4.0), 1.7e308)
@example(("sinpiecewise", 33.0), 1e308)
@settings(max_examples=200, deadline=None)
def test_indicator_norm_against_mpmath(member, mass):
    spec, q = member
    n = indicator_norm(make_family(spec).make(q), mass)
    with mpmath.workdps(DPS):
        exact = exact_psi(spec, q)
        r = rel(spec, q, exact, 1 / mpf(n))
        # the exact norm is 1 / psi^{-1}(1 / mass)
        y = 1 / mpf(mass)
        assert exact(1 / (mpf(n) * (1 + r))) <= y <= exact(1 / (mpf(n) * (1 - r))), \
            (spec, q, mass, n)


@given(MEMBERS, st.lists(st.tuples(WIDE, WIDE), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_norm_against_mpmath(member, atoms):
    spec, q = member
    f = SimpleFunction(tuple(atoms), INF)
    try:
        result = luxemburg_norm(make_family(spec).make(q), f)
    except BracketError:
        with mpmath.workdps(DPS):
            exact = exact_psi(spec, q)
            r_min, r_max = (norm_rel(spec, q, exact, f.atoms, lam) for lam in (DBL_MIN, DBL_MAX))
            # the modular decreases in lam: is the norm inside the normal range?
            inside = (_modular(exact, f.atoms, mpf(DBL_MIN) * (1 + r_min)) > 1
                      and _modular(exact, f.atoms, mpf(DBL_MAX) * (1 - r_max)) < 1)
        assert not inside, (spec, q, f.atoms)
        return
    # From [0, inf]: bisection's _STEPS (63), ITP's _N0 probe of slack, and
    # one probe for each convexity jump or stall step, taken outside that budget.
    assert result.iterations <= young._STEPS + young._N0 + young._JUMPS
    lam = mpf(result.norm)
    with mpmath.workdps(DPS):
        exact = exact_psi(spec, q)
        r = norm_rel(spec, q, exact, f.atoms, lam)
        assert _modular(exact, f.atoms, lam * (1 - r)) >= 1 >= \
            _modular(exact, f.atoms, lam * (1 + r)), (spec, q, f.atoms, result)


def test_indicator_norm_exact_at_huge_mass():
    # The old solver's inverse stopped at 1e-12 relative width of a bracket
    # doubled from [0, 1] and returned 6.2e-61 for psi^{-1}(1e-100), so this
    # norm came out as 1.6e60.
    assert indicator_norm(power_family().make(1.0), 1e100) == 1e100


@pytest.mark.parametrize("spec,q,atoms,want", [
    # a tiny and a huge mass, where the old fixed brackets gave BracketError
    ("power", 4.0, ((1.0, 1e-300),), 1e-75),
    ("logbump", 4.0, ((1.0, 1e300),), None),
    # masses whose sum overflows while each is finite
    ("power", 2.0, ((2.0, 1e308), (1.0, 1e308)), math.sqrt(5.0) * 1e154),
    # the old seeded lower bracket underflowed to 0 here
    ("power", 16.0, ((1e-310, 1e-240), (1e-311, 1e300)), 5.6234e-293),
])
def test_norms_that_the_bracketed_solver_refused(spec, q, atoms, want):
    f = SimpleFunction(atoms, INF)
    result = luxemburg_norm(make_family(spec).make(q), f)
    # From [0, inf]: bisection's _STEPS (63), ITP's _N0 probe of slack, and
    # one probe for each convexity jump or stall step, taken outside that budget.
    assert result.iterations <= young._STEPS + young._N0 + young._JUMPS
    if want is not None:  # its rough size; the mpmath check is the exact one
        assert result.norm == pytest.approx(want, rel=1e-4)
    with mpmath.workdps(DPS):
        exact = exact_psi(spec, q)
        lam = mpf(result.norm)
        r = norm_rel(spec, q, exact, f.atoms, lam)
        assert _modular(exact, f.atoms, lam * (1 - r)) >= 1 >= \
            _modular(exact, f.atoms, lam * (1 + r))


def test_chain_steps_are_correctly_rounded():
    with mpmath.workdps(DPS):
        x = mpf(1)
        for r in young._RECIPROCAL_ANCHORS:  # 1 / exp^k(1), k = 1, 2, 3
            x = mpmath.exp(x)
            assert r == float(1 / x)


@pytest.mark.parametrize("q", [2.0 ** 28, 2.0 ** 30, 2.0 ** 32])
@pytest.mark.parametrize("spec", ["iterlog:N=3", "addie:N=3"])
def test_large_q_norm_is_fast_and_exact(spec, q):
    # The norm is still on its way to ||f||_inf = 2.  Rounding noise in the
    # member, which q multiplies, would stall the secant near the root.
    f = SimpleFunction(((2.0, 1.0), (1.0, 3.0)), INF)
    result = luxemburg_norm(make_family(spec).make(q), f)
    assert result.iterations <= 12
    lo, hi = map(mpf, result.bracket)
    with mpmath.workdps(DPS):
        exact = exact_psi(spec, q)
        r = norm_rel(spec, q, exact, f.atoms, lo)
        assert _modular(exact, f.atoms, lo * (1 - r)) >= 1 >= \
            _modular(exact, f.atoms, hi * (1 + r)), (spec, q, result)


@pytest.mark.parametrize("spec", ["iterlog:N=3", "addie:N=3", "iterlog:N=3,p=2"])
def test_n3_members_accurate_at_large_q(spec):
    # q multiplies the rounding of the log factor: formed from c_3 + t, a
    # member is off by up to 2e-7 here.
    q, ts = 2.0 ** 30, (0.3, 0.5, 0.9, 1.1, 1.7, 2.0, 3.0, 7.0)
    family = make_family(spec)
    scalar = [family.make(q)(t) for t in ts]
    grid = family.evaluate_grid(ts, [q]).ravel().tolist()
    with mpmath.workdps(DPS):
        exact = exact_psi(spec, q)
        for t, a, b in zip(ts, scalar, grid):
            want = exact(mpf(t))
            assert abs(a / want - 1) <= 1e-13 and abs(b / want - 1) <= 1e-13, (spec, t, a, b)
