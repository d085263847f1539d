"""The ITP root finder: the bracket of plain bisection, in fewer steps.

``_root`` decides every step by the exact predicate and uses the gap only to
place probes, so whatever the gap says it must end on the same two adjacent
doubles as a plain bisection of the bit patterns, in at most
``_STEPS + _N0 + _JUMPS`` (67) probes from ``[0, inf]``, wherever its first
probe is; a norm of the seeded functions below, whose first probe is
``||f||_inf``, takes about 9 on average.  The reference bisection here is
written out independently of the package.
"""

import math
import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

import orlicz.luxemburg as luxemburg
from orlicz import (BracketError, MeasureSpace, SimpleFunction, YoungFamily, ess_sup,
                    luxemburg_norm, make_family, modular)
from orlicz import admissibility, young
from orlicz.young import _root, _secant

from cases import seeded_functions
from conftest import CATALOG_SPECS

INF = MeasureSpace(math.inf)
DBL_MIN = sys.float_info.min
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")


def bits(x):
    return _I64.unpack(_F64.pack(x))[0]


def double(k):
    return _F64.unpack(_I64.pack(k))[0]


INF_BITS = bits(math.inf)
QS = (1.0, 4.0, 64.0, 4096.0)


def bisect(below):
    """Adjacent doubles where ``below`` turns false, by halving the bit
    patterns of ``[0, inf]``: the reference for every bracket."""
    i, j = 0, INF_BITS
    while j - i > 1:
        mid = (i + j) >> 1
        if below(double(mid)):
            i = mid
        else:
            j = mid
    return double(i), double(j)


FUNCTIONS = seeded_functions()
YS = (5e-324, 1e-300, 0.5, 1.0, 2.0, 1e300, 1.7976931348623157e308,
      *(10.0 ** random.Random(9).uniform(-300, 300) for _ in range(8)))


# Threshold patterns: uniform over the range, and the patterns of doubles at
# every scale.
THRESHOLDS = st.one_of(st.integers(1, INF_BITS),
                       st.floats(min_value=5e-324, allow_infinity=True).map(bits))
GAPS = st.sampled_from(("random", "constant", "inf", "-inf", "nan", "scaled"))


def _brackets_threshold(k, mode, data, start=None):
    """``_root`` from ``start`` on the predicate ``pattern < k``, with gaps
    drawn by ``mode``, ends on bisection's bracket within the budget."""
    const = data.draw(st.floats(allow_nan=True, allow_infinity=True))
    scale = data.draw(st.floats(min_value=-1e300, max_value=1e300))
    probed = []

    def probe(x):
        b = bits(x)
        assert 0 < b < INF_BITS and b not in probed  # never an end, never twice
        probed.append(b)
        gap = {"random": lambda: data.draw(st.floats(allow_nan=True, allow_infinity=True)),
               "constant": lambda: const, "inf": lambda: math.inf,
               "-inf": lambda: -math.inf, "nan": lambda: math.nan,
               "scaled": lambda: (k - b) * scale}[mode]()
        return b < k, gap
    assert _root(probe, start) == (double(k - 1), double(k))
    if start is not None:  # the first probe is start, clipped into (0, inf)
        assert probed[0] == min(max(bits(start), 1), INF_BITS - 1)
    # The _STEPS of bisection, ITP's _N0 probes of slack, and one probe for
    # each convexity jump or stall step, which lie outside that budget.
    assert len(probed) <= young._STEPS + young._N0 + young._JUMPS


@settings(max_examples=400, deadline=None)
@given(k=THRESHOLDS, mode=GAPS, data=st.data())
def test_root_brackets_any_threshold_whatever_the_gap(k, mode, data):
    _brackets_threshold(k, mode, data)


@settings(max_examples=400, deadline=None)
@given(k=THRESHOLDS, mode=GAPS, start=st.floats(min_value=5e-324), data=st.data())
def test_root_brackets_any_threshold_from_any_start(k, mode, start, data):
    # Any positive double as the first probe, inf included, whose pattern is
    # the upper end's: ITP's budget holds after any first probe.
    _brackets_threshold(k, mode, data, start)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_norm_and_inverse_brackets_equal_bisection(spec):
    family = make_family(spec)
    for q in QS:
        psi = family.make(q)
        for _, atoms in FUNCTIONS:
            f = SimpleFunction(atoms, INF)
            lo, hi = bisect(lambda lam: modular(psi, f, lam) > 1.0)
            if hi == math.inf or lo < DBL_MIN:
                with pytest.raises(BracketError):
                    luxemburg_norm(psi, f)
            else:
                assert luxemburg_norm(psi, f).bracket == (lo, hi), (spec, q, atoms)
        for y in YS:
            t = bisect(lambda t: psi(t) < y)[1]
            if t == math.inf:
                with pytest.raises(BracketError):
                    psi.inverse(y)
            else:
                assert psi.inverse(y) == t, (spec, q, y)


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_norm_first_probes_the_sup(probes, spec):
    # The paper's limit puts the norm at C * ||f||_inf for large q, so the
    # search starts there, not at the midpoint pattern (1.5).
    psi = make_family(spec).make(4.0)
    for _, atoms in FUNCTIONS:
        f = SimpleFunction(atoms, INF)
        try:
            luxemburg_norm(psi, f)
        except BracketError:
            pass
        assert probes.take()[0][0] == ess_sup(f), (spec, atoms)


def _steps(probes, spec, q, kinds):
    """Modular evaluations of each norm solve over the seeded functions."""
    psi = make_family(spec).make(q)
    steps = []
    for kind, atoms in FUNCTIONS:
        if kind in kinds:
            try:
                luxemburg_norm(psi, SimpleFunction(atoms, INF))
            except BracketError:
                pass
            steps.append(len(probes.take()))
    return steps


def test_mean_steps_over_the_catalog(probes):
    # Plain bisection took 63 steps and 65 modular evaluations on every solve.
    steps = [n for spec in CATALOG_SPECS for q in QS
             for n in _steps(probes, spec, q, ("lognormal", "wide"))]
    # Bisection's _STEPS, ITP's _N0 of slack, and the _JUMPS taken outside it.
    assert max(steps) <= young._STEPS + young._N0 + young._JUMPS
    assert sum(steps) / len(steps) <= 9.25  # 8.92 measured; 12.01 from the midpoint


@pytest.mark.parametrize("spec", ["power", "identity"])
def test_linear_members_take_few_steps(probes, spec):
    # log modular is linear in log lam: the first probe, the convexity jump
    # and a secant or two close the bracket.
    assert max(_steps(probes, spec, 1.0, ("lognormal",))) <= 8


@pytest.mark.parametrize("k", [1, 3, 10, 100])
def test_secant_lands_next_to_a_near_end(k):
    # Gaps exactly linear in log x on [1e100, 1e300], root k patterns from
    # one end.  log x has too few bits there to place the estimate (its ulp
    # is 2.8e-14, a pattern 2.2e-16); a step from the nearer end does.
    lo, hi = bits(1e100), bits(1e300)
    for root in (double(lo + k), double(hi - k)):
        x = _secant(lo, hi, math.log(root / double(lo)), math.log(root / double(hi)),
                    double(lo), double(hi))
        assert abs(x - bits(root)) <= 1


def test_one_sided_secants_keep_few_steps(probes):
    # sinpiecewise bends sharply between the first probes and the root, so
    # secants used to creep up on it from one side until the slack was spent
    # and the search bisected to the end: 3 of these 80 solves took all 64
    # steps.  With the step after a stall and the finite stand-in for an
    # infinite gap they take 9-28, most of them 11-15.
    rng = random.Random(11)
    steps = []
    for q in (33.0, 64.0):
        psi = make_family("sinpiecewise").make(q)
        for n in (8, 64):
            for _ in range(20):
                atoms = [(rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
                         for _ in range(n)]
                luxemburg_norm(psi, SimpleFunction(atoms, INF))
                steps.append(len(probes.take()))
    assert max(steps) <= 32


def _counting(family):
    """``family`` with the same formula, and the list its calls append to."""
    calls = []

    def fn(t, q):
        calls.append(None)
        return family.fn(t, q)
    return YoungFamily(family.label, fn, family.params, family.q_min), calls


@pytest.mark.parametrize("spec", ["power", "logbump", "iterlog:N=2", "addie:N=2"])
def test_classify_plan_inverses_take_few_probes(spec):
    # Every scalar inverse the classifier may read: each q that either side
    # of it reads (every probe's scan and both parities) times each probe
    # level.  A convexity jump that lands in the far half of the
    # bracket used to spend ITP's probe of slack, after which the search
    # bisected to the last bit: power took 64 probes at q = 2048 and 8192.
    family, calls = _counting(make_family(spec))
    qs = admissibility._scans(family, admissibility._Y_GRID)[2]
    # at least one 13-q scan and the two 13-q parities of its start
    assert len(qs) >= 3 * (admissibility._DOUBLINGS + 1)
    steps = []
    for q in qs:
        psi = family.make(q)
        for y in admissibility._Y_GRID:
            calls.clear()
            psi.inverse(y)
            steps.append(len(calls))
    assert max(steps) < 40


@pytest.mark.parametrize("mass", [0.1, 0.25, 0.5])
def test_secants_against_an_infinite_end_do_not_creep(probes, mass):
    # The jump from the first probe lands where the modular overflows, so the
    # bracket's lower end has an infinite gap.  Its finite stand-in used to
    # stay at full size, so each secant moved the upper end by about 1% (1.5,
    # 1.494, 1.487, ...) and the search bisected to the end: 64 probes.  The
    # stand-in is damped like a finite gap now.  The first probe is
    # ||f||_inf = 1, where the modular is the mass, so the premise needs a
    # mass below 1.
    luxemburg_norm(make_family("sinpiecewise").make(1024.0),
                   SimpleFunction(((1.0, mass),), INF))
    values = [m for _, m in probes.take()]
    assert values[0] < 1.0 and values[1] == math.inf  # the premise
    assert len(values) <= 32


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
def test_secants_from_the_midpoint_do_not_creep(monkeypatch, probes, mass):
    # The solves above, started at the midpoint pattern (1.5), as every
    # inverse is.  From ||f||_inf = 1 they pass even without the damping of
    # the infinite stand-in; from the midpoint, mass 1.0 then takes 65 probes.
    monkeypatch.setattr(luxemburg, "_root", lambda probe, start: _root(probe))
    test_secants_against_an_infinite_end_do_not_creep(probes, mass)
