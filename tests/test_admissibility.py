"""Limit classification, admissibility verdicts, growth-ratio checks."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    DomainError,
    MeasureSpace,
    SimpleFunction,
    YoungFamily,
    YoungFunction,
    classify,
    classify_sequence,
    growth_check,
    growth_check_inverse_form,
    identity_family,
    limit_of_inverses,
    limit_of_values,
    logbump_family,
    luxemburg_norm,
    make_family,
    power_family,
    powerlog_e_family,
    sinpiecewise_family,
)
from orlicz import admissibility
from orlicz.admissibility import (_DOUBLINGS, _T_GRID, _Y_GRID, _geometric_schedule,
                                  _parity_schedules)
from orlicz.cli import _phase_locked_schedule
from cases import (GROWTH_PAIRS, SCALED_BANDS, SCALED_DELTAS, damped, scaled,
                   slowed_sinpiecewise, user_power, user_sin, vanishing, without_evidence)
from conftest import CATALOG_SPECS

INF = MeasureSpace(math.inf)
GEO = _geometric_schedule(1.0, _DOUBLINGS)


# ---------------------------------------------------------------- schedules

def test_geometric_schedule_doubles():
    qs = _geometric_schedule(2.0, 4)
    assert qs == (2.0, 4.0, 8.0, 16.0, 32.0)


def test_t_grid_is_geomspace():
    assert len(admissibility._T_GRID) == 33
    assert admissibility._T_GRID == tuple(np.geomspace(0.05, 20.0, 33).tolist())


def test_phase_locked_parity():
    locked = _phase_locked_schedule(1, 6)
    odd, even = locked[0::2], locked[1::2]
    assert all(math.sin(q) == pytest.approx(-1.0, abs=1e-12) for q in odd)
    assert all(math.sin(q) == pytest.approx(1.0, abs=1e-12) for q in even)
    assert len(odd) == 3 and len(even) == 3


@pytest.mark.parametrize("q0,doublings", [(1e307, 12), (1.0, 1024), (1.0, 2000),
                                          (5e-324, 2098)])
def test_geometric_schedule_rejects_leaving_the_double_range(q0, doublings):
    message = (f"q0 * 2^doublings is beyond the double range for q0={q0!r}, "
               f"doublings={doublings!r}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _geometric_schedule(q0, doublings)


@pytest.mark.parametrize("check", [
    lambda family: classify(family, INF),
    lambda family: growth_check(family, power_family().make(3.0), 5.0),
], ids=["classify", "growth_check"])
def test_a_q_min_near_the_top_of_the_doubles_is_a_domain_error(check):
    # The scans start at q_min and double from there; math.ldexp would raise
    # OverflowError, a numeric failure, for what is the family's input.
    big = YoungFamily("big", lambda t, q: t ** 2, {}, q_min=1e307)
    with pytest.raises(DomainError, match=r"^q0 \* 2\^doublings is beyond the double range "
                                          r"for q0=1e\+307, doublings=\d+$"):
        check(big)


def test_geometric_schedule_is_exact_to_the_range_ends():
    # 2.0 ** 1024 overflows, yet 5e-324 * 2^1100 is 2^26
    assert _geometric_schedule(5e-324, 1100)[-1] == 2.0 ** 26
    assert _geometric_schedule(5e-324, 2097)[-1] == 2.0 ** 1023
    assert _geometric_schedule(1.5, 1023)[-1] == 1.5 * 2.0 ** 1023
    for q0 in (1.0, 0.3, math.pi, 5e-324, 1e-310, 1e290):
        qs = _geometric_schedule(q0, 40)
        assert qs == tuple(q0 * 2.0 ** j for j in range(41))


def test_schedules_take_whole_number_bounds():
    assert _geometric_schedule(2.0, 0) == (2.0,)
    assert _geometric_schedule(1.0, np.int64(3)) == (1.0, 2.0, 4.0, 8.0)
    assert _phase_locked_schedule(0, 1) == (math.pi / 2.0, 1.5 * math.pi)
    assert _phase_locked_schedule(np.int64(2), np.int64(2)) == (math.pi / 2.0 + 2 * math.pi,)
    assert _phase_locked_schedule(3, 2) == ()
    assert all(q > 0.0 for q in _phase_locked_schedule(0, 64))


# ------------------------------------------------- sequence classification

def test_sequence_one_over_q_limit():
    vs = [2.0 + 5.0 / q for q in GEO]
    est = classify_sequence(GEO, vs)
    assert est.kind == "finite"
    assert est.value == pytest.approx(2.0, abs=1e-6)


def test_sequence_exponentially_settled():
    vs = [0.75 + 0.9 ** q for q in GEO]
    est = classify_sequence(GEO, vs)
    assert est.kind == "finite"
    assert est.value == pytest.approx(0.75, abs=1e-6)


def test_sequence_underflow_to_zero():
    vs = [max(0.5 ** q, 0.0) for q in GEO]
    assert classify_sequence(GEO, vs).kind == "zero"


def test_sequence_slow_decay_to_zero():
    vs = [3.0 / q for q in GEO]
    assert classify_sequence(GEO, vs).kind == "zero"


def test_sequence_abrupt_drop_below_small_value_is_zero():
    # Flat, then one step below _SMALL_VALUE: r1 sees no decay toward zero
    # and the tail is not flat, so only the _SMALL_VALUE gate decides it.
    assert classify_sequence(GEO, [1.0] * 12 + [1e-13]).kind == "zero"


def test_sequence_large_coefficients_settle_only_from_a_later_start():
    # Two Richardson stages leave a 2e5/q^3 term drifting on q <= 4096; the
    # same sequence read from q = 8 on is a stable finite limit.
    def seq(qs):
        return [1 + 95 / q + 4.5e3 / q ** 2 + 2e5 / q ** 3 for q in qs]
    assert classify_sequence(GEO, seq(GEO)).kind == "undetermined"
    later = _geometric_schedule(8.0, _DOUBLINGS)
    est = classify_sequence(later, seq(later))
    assert est.kind == "finite" and est.value == pytest.approx(1.0, abs=1e-6)


def test_sequence_flat_below_zero_tol_is_zero():
    # settled within _FLAT_TOL long before it reads below _SMALL_VALUE
    vs = [1e-4 / 4.0 ** j for j in range(13)]
    assert classify_sequence(GEO, vs).kind == "zero"
    assert classify_sequence(GEO, [admissibility._ZERO_TOL] * 13).kind == "zero"
    assert classify_sequence(GEO, [2.0 * admissibility._ZERO_TOL] * 13).kind == "finite"


def test_sequence_divergent():
    vs = [1.1 ** q for q in GEO]
    est = classify_sequence(GEO, vs)
    assert est.kind == "infinite"
    assert est.limsup_est == math.inf


def test_sequence_divergent_with_overflow():
    vs = [2.0 ** q if q < 1000.0 else math.inf for q in GEO]
    assert classify_sequence(GEO, vs).kind == "infinite"


def test_sequence_alternating():
    vs = [1.0 + 0.25 * (-1.0) ** j for j in range(len(GEO))]
    est = classify_sequence(GEO, vs)
    assert est.kind == "oscillating"
    assert est.liminf_est == pytest.approx(0.75)
    assert est.limsup_est == pytest.approx(1.25)


def test_sequence_log_divergence_stays_undetermined():
    vs = [math.log(q + 1.0) for q in GEO]
    assert classify_sequence(GEO, vs).kind == "undetermined"


@pytest.mark.parametrize("position", [0, 3, 7])
def test_sequence_nan_raises_naming_its_q(position):
    # min/max would drop a NaN or not depending on where it sits: the band
    # would depend on the order, so a NaN is a numeric failure instead.
    qs = [2.0 ** j for j in range(8)]
    vs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    vs[position] = math.nan
    with pytest.raises(ArithmeticError, match=rf"q={qs[position]!r} is NaN"):
        classify_sequence(qs, vs)


@pytest.mark.parametrize("qs,vs", [([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0], [1.0, 2.0]),
                                   ([], [])])
def test_sequence_rejects_unequal_or_empty_input(qs, vs):
    with pytest.raises(DomainError, match=rf"^qs and vs must have the same length > 0, "
                                          rf"got {len(qs)} and {len(vs)}$"):
        classify_sequence(qs, vs)


def test_sequence_inf_minus_inf_is_no_nan():
    # the sum that screens for a NaN is NaN here too, yet no value is
    vs = [1.0, math.inf, -math.inf, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert classify_sequence([2.0 ** j for j in range(8)], vs).kind == "finite"


def test_classify_raises_on_nan_values():
    nan_above_ten = YoungFamily("nan-power", lambda t, q: t ** q if t <= 10.0 else math.nan,
                                {}, q_min=1.0)
    with pytest.raises(ArithmeticError, match="NaN"):
        classify(nan_above_ten, INF)


def test_sequence_respects_config_override(monkeypatch):
    # q^0.4 growth is too slow for the fixed divergence gates, and only the
    # gates hold it back: looser module thresholds accept it as divergent.
    vs = [q ** 0.4 for q in GEO]
    assert classify_sequence(GEO, vs).kind == "undetermined"
    monkeypatch.setattr(admissibility, "_GROWTH_FACTOR", 3.0)
    monkeypatch.setattr(admissibility, "_BIG_SLOPE", 10.0)
    assert classify_sequence(GEO, vs).kind == "infinite"


# -------------------------------------------------------- pointwise limits

def test_value_limit_power_above_one():
    assert limit_of_values(power_family(), 2.0).kind == "infinite"


def test_value_limit_power_below_one():
    assert limit_of_values(power_family(), 0.5).kind == "zero"


def test_value_limit_sinpiecewise_oscillates():
    est = limit_of_values(sinpiecewise_family(), 0.75)
    assert est.kind == "oscillating"
    # bump term 0.5^(2+sin q): parity-locked limits (0.5)^3/2 and (0.5)^1/2
    assert est.liminf_est == pytest.approx(0.0625, abs=1e-4)
    assert est.limsup_est == pytest.approx(0.25, abs=1e-4)


def test_inverse_limit_power():
    est = limit_of_inverses(power_family(), 7.0)
    assert est.kind == "finite"
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_inverse_limit_powerlog_vanishes():
    assert limit_of_inverses(powerlog_e_family(1.0), 1.0).kind == "zero"


def test_inverse_limit_logbump_p2():
    est = limit_of_inverses(logbump_family(2.0), 3.0)
    assert est.kind == "finite"
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_limits_reject_bad_arguments():
    with pytest.raises(DomainError):
        limit_of_values(power_family(), 0.0)
    with pytest.raises(DomainError):
        limit_of_inverses(power_family(), -2.0)


def test_evidence_sorted_by_q():
    est = limit_of_inverses(power_family(), 7.0)
    qs = [q for q, _ in est.evidence]
    assert qs == sorted(qs)


@pytest.mark.parametrize("spec", ["power", "logbump", "iterlog"])
@pytest.mark.parametrize("t", [1.5, 2.0, 8.0])
def test_value_monotone_in_q_above_threshold(spec, t):
    """For power-type families psi_q(t) grows with q once t > 1."""
    fam = make_family(spec)
    vals = [fam.make(q)(t) for q in _geometric_schedule(1.0, 8)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------- verdicts

def test_classify_power_delta_one():
    rep = classify(power_family(), INF)
    assert rep.verdict == "delta_admissible"
    assert rep.delta == pytest.approx(1.0, abs=1e-2)


def test_classify_logbump_delta_one():
    rep = classify(logbump_family(1.0), INF)
    assert rep.verdict == "delta_admissible"
    assert rep.delta == pytest.approx(1.0, abs=1e-2)


def test_classify_iterlog_n2_delta_one():
    rep = classify(make_family("iterlog:N=2"), INF)
    assert rep.verdict == "delta_admissible"
    assert rep.delta == pytest.approx(1.0, abs=1e-2)
    # At N = 3 the inverse limits have not settled by the end of the schedule:
    # the verdict may be undetermined, but any decisive one must be delta = 1.
    for spec in ("iterlog:N=3", "addie:N=3"):
        for space in (INF, MeasureSpace(2.0)):
            rep = classify(make_family(spec), space)
            assert rep.verdict in ("delta_admissible", "undetermined"), (spec, rep)
            if rep.verdict == "delta_admissible":
                assert rep.delta == pytest.approx(1.0, abs=1e-2), (spec, rep)


def test_classify_sinpiecewise_half_one():
    rep = classify(sinpiecewise_family(), INF)
    assert rep.verdict == "alpha_beta_admissible"
    assert rep.alpha == pytest.approx(0.5, abs=1e-2)
    assert rep.beta == pytest.approx(1.0, abs=1e-2)


def test_classify_powerlog_divergent_any_space():
    for space in (INF, MeasureSpace(1.0)):
        assert classify(powerlog_e_family(1.0), space).verdict == \
            "inadmissible_divergent"


def test_classify_identity_undetermined():
    # Constant inverse limits spread over the whole grid: the value side
    # contradicts any candidate band, which downgrades to undetermined.
    assert classify(identity_family(), INF).verdict == "undetermined"


def test_classify_context_mass_recorded():
    rep = classify(power_family(), MeasureSpace(2.0))
    assert rep.context_mass == 2.0


def test_classify_sinpiecewise_finite_mass_contexts():
    # Oscillation lives at y < 1/2. With total mass 2 only y >= 1/2 is
    # meaningful, so the family is delta-admissible in that context; with
    # total mass 3 the band (5/6, 1) becomes visible.
    rep2 = classify(sinpiecewise_family(), MeasureSpace(2.0))
    assert rep2.verdict == "delta_admissible"
    assert rep2.delta == pytest.approx(1.0, abs=1e-2)
    rep3 = classify(sinpiecewise_family(), MeasureSpace(3.0))
    assert rep3.verdict == "alpha_beta_admissible"
    assert rep3.alpha == pytest.approx(5.0 / 6.0, abs=1e-2)
    assert rep3.beta == pytest.approx(1.0, abs=1e-2)


def test_classify_mass_beyond_reciprocal_range_overflows():
    # 1/total_mass overflows below about 5.6e-309: a numeric failure, not bad input
    with pytest.raises(OverflowError, match="1e-320"):
        classify(power_family(), MeasureSpace(1e-320))


@pytest.mark.parametrize("mass", [math.inf, 2.0])
def test_classify_vanishing_family(mass):
    rep = classify(vanishing(), MeasureSpace(mass))
    assert rep.verdict == "inadmissible_vanishing"
    assert {est.kind for _, est in rep.inverse_evidence} == {"infinite"}


# Families that show the geometric scan (q a power of two) one face and every
# other q another.  On the powers of two the member is (t / L)^8, with L such
# that psi^{-1}(0.0005) = 0.06, except that on two of every three it is raised
# below 0.06 to the chord from 0 to (0.06, 0.0005).  So every inverse probe
# y >= 0.0005 lands above 0.06 and reads a flat, finite geometric scan, while
# the value probe t = 0.05 reads an undetermined one and goes on to the
# phase-locked q, where the member is scale(q) * (t / L)^8.
_TWO_FACED_L = 0.06 / 0.0005 ** 0.125


def _two_faced_family(scale):
    def fn(t, q):
        mantissa, exponent = math.frexp(q)
        base = (t / _TWO_FACED_L) ** 8
        if mantissa != 0.5:
            return scale(q) * base
        return max(base, t / 120.0) if exponent % 3 else base
    return YoungFamily("two-faced", fn, {}, q_min=1.0)


def test_agreeing_decisive_parities_rescue_an_undetermined_scan():
    # psi is t / 120 at q = 1 and 2, so t = 0.05 has no slope and its scan
    # starts at q = 1
    family = _two_faced_family(lambda q: q ** 8)
    geometric = classify_sequence(GEO, [family.fn(0.05, q) for q in GEO])
    assert geometric.kind == "undetermined"
    est = limit_of_values(family, 0.05)
    assert est.kind == "infinite"
    assert {q for q, _ in est.evidence} > set(GEO)  # the parities were read


def test_agreeing_zero_parities_rescue_an_undetermined_scan():
    geometric = classify_sequence(GEO, [math.log(q) for q in GEO])
    assert geometric.kind == "undetermined"
    odd, even = (classify_sequence(p, [1.0 / q for q in p]) for p in _parity_schedules(1.0))
    assert odd.kind == even.kind == "zero"
    evidence = tuple(sorted(geometric.evidence + odd.evidence + even.evidence))
    assert admissibility._aggregate(geometric, odd, even) == \
        admissibility.LimitEstimate("zero", None, 0.0, 0.0, evidence)


@pytest.mark.parametrize("mass,probes", [(math.inf, 7), (2.0, 4)])
def test_agreeing_finite_parities_rescue_every_probe(mass, probes):
    # Every probe's scan is undetermined; its parities agree on 2, and
    # their finite limits decide the verdict.
    report = classify(damped(), MeasureSpace(mass))
    assert report.verdict == "delta_admissible" and abs(report.delta - 2.0) <= 1e-6
    assert len(report.inverse_evidence) == probes
    for _, est in report.inverse_evidence:
        scan = _geometric_schedule(est.evidence[0][0], _DOUBLINGS)
        value_at = dict(est.evidence)
        assert classify_sequence(scan, [value_at[q] for q in scan]).kind == "undetermined"
        assert est.kind == "finite" and len(est.evidence) == 3 * (_DOUBLINGS + 1)


@pytest.mark.parametrize("scale,mass,kind", [
    (lambda q: q ** 8, math.inf, "infinite"),  # members blow up below alpha
    (lambda q: 100.0, math.inf, "finite"),     # a limit above _ZERO_TOL below alpha
    (lambda q: 100.0, 2000.0, "finite"),       # a limit above 1/total_mass below alpha
], ids=["infinite", "finite-infinite-mass", "finite-finite-mass"])
def test_value_side_vetoes_below_alpha(scale, mass, kind):
    rep = classify(_two_faced_family(scale), MeasureSpace(mass))
    assert rep.verdict == "undetermined"
    # the inverse side alone gives a band, and its alpha is above t = 0.05
    assert {est.kind for _, est in rep.inverse_evidence} == {"finite"}
    alpha = min(est.value for _, est in rep.inverse_evidence)
    beta = max(est.value for _, est in rep.inverse_evidence)
    t, est = rep.value_evidence[0]
    assert t < alpha * (1.0 - admissibility._MARGIN) and est.kind == kind
    floor = 0.0 if math.isinf(mass) else 1.0 / mass
    assert admissibility._value_side_veto(rep.value_evidence[:1], alpha, beta, floor)


def test_value_side_vetoes_a_delta_candidate():
    # t^2000 for every q: the inverse limits y^(1/2000) agree within
    # _CLASS_TOL on a delta near 1, but the values above it stay finite.
    rep = classify(YoungFamily("frozen", lambda t, q: t ** 2000.0, {}, q_min=1.0), INF)
    assert rep.verdict == "undetermined"
    values = [est.value for _, est in rep.inverse_evidence]
    assert max(values) - min(values) <= admissibility._CLASS_TOL
    assert dict(rep.value_evidence)[1.2059085510306964].kind == "finite"


KNOWN_BANDS = {
    "power": (1.0, 1.0),
    "logbump": (1.0, 1.0),
    "logbump:p=2": (1.0, 1.0),
    "iterlog": (1.0, 1.0),
    "iterlog:N=2": (1.0, 1.0),
    "addie": (1.0, 1.0),
    "sinpiecewise": (0.5, 1.0),
}


@pytest.mark.parametrize("spec", sorted(KNOWN_BANDS))
def test_inverse_limits_sandwiched_by_band(spec):
    """Every probe's [liminf, limsup] estimate sits inside the family band."""
    alpha, beta = KNOWN_BANDS[spec]
    rep = classify(make_family(spec), INF)
    tol = 1e-2
    for y, est in rep.inverse_evidence:
        assert est.kind in ("finite", "oscillating"), (y, est.kind)
        assert est.liminf_est >= alpha - tol, (y, est)
        assert est.limsup_est <= beta + tol, (y, est)
        assert est.liminf_est <= est.limsup_est


# Every anchored catalog spec up to N = 3, p = 3, and the masses from infinite
# to 0.01, where 1/total_mass is a probe above _Y_GRID.
ANCHORED_SPECS = ("power", *(f"logbump:p={p}" for p in (1, 2, 3)),
                  *(f"{name}:N={n},p={p}" for name in ("iterlog", "addie")
                    for n in (1, 2, 3) for p in (1, 2, 3)))
ORACLE_MASSES = (math.inf, 100.0, 10.0, 2.0, 1.0, 0.5, 0.01)


@pytest.mark.parametrize("spec", [*ANCHORED_SPECS, *(f"powerlog_e:p={p}" for p in (1, 2, 3))])
def test_classify_agrees_with_closed_form_inverse_limit(spec):
    """The paper's inverse-limit condition in closed form.  For these
    families ``log psi_q(t) = A(t) + q B(t)``, so ``psi_q^{-1}(y)`` tends to
    the zero of ``B``: ``t = 1`` for every anchored family, hence delta = 1,
    and 0 for ``powerlog_e``, whose ``B`` is positive everywhere."""
    family = make_family(spec)
    for mass in ORACLE_MASSES:
        rep = classify(family, MeasureSpace(mass))
        if spec.startswith("powerlog_e"):
            assert rep.verdict == "inadmissible_divergent", mass
        else:
            assert rep.verdict == "delta_admissible", (mass, rep.verdict)
            assert abs(rep.delta - 1.0) <= 1e-9, (mass, rep.delta)


def test_delta_verdict_equivalent_to_pointwise_finiteness():
    """delta-admissible exactly when every probe inverse limit is finite at
    the same value; the oscillating family fails the pointwise side."""
    rep = classify(power_family(), INF)
    assert rep.verdict == "delta_admissible"
    for y in (0.02, 0.75, 2.0, 10.0):
        est = limit_of_inverses(power_family(), y)
        assert est.kind == "finite"
        assert est.value == pytest.approx(rep.delta, abs=1e-2)

    assert classify(sinpiecewise_family(), INF).verdict != "delta_admissible"
    kinds = {limit_of_inverses(sinpiecewise_family(), y).kind
             for y in (0.02, 0.2)}
    assert "oscillating" in kinds


# ------------------------------------------------ norms confirm the verdicts

# Three simple functions as (value, mass) atoms; the first scaled into mass 2
# for the finite space.  Every sup atom has mass >= 1/4: a norm at q falls
# short of its limit by about a factor m^(1/q) for a sup atom of mass m, which
# keeps the phase-locked norms at q ~ 320 within 1% of their band.
NORM_FUNCTIONS = (((2.0, 1.0), (1.0, 3.0)), ((3.0, 0.25), (0.5, 1.0)),
                  ((0.75, 0.5), (0.25, 1.0), (0.1, 0.3)))
# Each spec's q, the relative error its delta norms may keep at the last, and
# the probes each of them may take (None: not checked).  The N = 3 members
# hold their L^1 plateau out to q ~ 2^24 (their scans start near 2^30), so
# their norms are read further out: at 2^40 they are within 2.0e-4.
NORM_CASES = {
    **dict.fromkeys(CATALOG_SPECS, ((2.0 ** 8, 2.0 ** 12, 2.0 ** 16, 2.0 ** 20), 1e-3, None)),
    **dict.fromkeys(("iterlog:N=3", "addie:N=3"),
                    ((2.0 ** 32, 2.0 ** 36, 2.0 ** 40, 2.0 ** 44), 1.3e-5, 10)),
}


def _norm_functions(space):
    scale = 0.5 if space.finite else 1.0
    first, *rest = NORM_FUNCTIONS
    for atoms in (tuple((v, m * scale) for v, m in first), *rest):
        yield SimpleFunction(atoms, space), max(v for v, _ in atoms)


@pytest.mark.parametrize("mass", [math.inf, 2.0])
@pytest.mark.parametrize("spec", NORM_CASES)
def test_norms_confirm_catalog_verdict(spec, mass):
    """The theorem's side of a verdict: ``||f||_{psi_q} -> ||f||_inf / delta``,
    a band ``[||f||_inf / beta, ||f||_inf / alpha]`` along the phase-locked q,
    or norms growing without bound."""
    family, space = make_family(spec), MeasureSpace(mass)
    rep = classify(family, space)
    qs, tol, probes = NORM_CASES[spec]

    def norms(f, qs):
        return [luxemburg_norm(family.make(q), f).norm for q in qs]
    for f, sup in _norm_functions(space):
        if rep.verdict == "delta_admissible":
            limit = sup / rep.delta
            results = [luxemburg_norm(family.make(q), f) for q in qs]
            assert probes is None or max(r.iterations for r in results) <= probes, results
            errs = [abs(r.norm - limit) / limit for r in results]
            assert errs[-1] <= tol, (f, errs)
            # a norm that settled at its limit may move by its rounding
            assert all(b <= a + 1e-15 for a, b in zip(errs[1:], errs[2:])), (f, errs)
        elif rep.verdict == "alpha_beta_admissible":
            locked = norms(f, _phase_locked_schedule(100, 110))
            assert sup / rep.beta * 0.99 <= min(locked), (f, locked)
            assert max(locked) <= sup / rep.alpha * 1.01, (f, locked)
        else:
            assert rep.verdict == "inadmissible_divergent"
            grown = norms(f, qs)
            assert all(b > a for a, b in zip(grown, grown[1:])), (f, grown)
            assert grown[-1] > 100.0 * sup, (f, grown)


# ------------------------------------------------------------ growth checks

def test_growth_power_threshold_exact():
    rep = growth_check(power_family(), power_family().make(2.0), 5.0)
    assert rep.q_threshold == 2.0
    assert dict(rep.per_q)[1.0] is False


def test_growth_power_identity_comparison():
    rep = growth_check(power_family(), identity_family().make(1.0), 5.0)
    assert rep.q_threshold == 1.0  # every sampled q passes


def test_growth_logbump_vs_cubic_violation():
    rep = growth_check(logbump_family(1.0), power_family().make(3.0), 5.0)
    assert rep.q_threshold is None
    q, t1, t2, r1, r2 = rep.witness
    assert q == 32.0  # largest scheduled q still fails
    assert t1 < t2 and r1 > r2


def test_growth_logbump_self_comparison_threshold():
    for p in (1.0, 2.0):
        fam = logbump_family(p)
        rep = growth_check(fam, fam.make(1.0), 10.0)
        assert rep.q_threshold == 1.0


def test_growth_forms_agree_across_catalog():
    pairs = [
        (power_family(), power_family().make(1.5), 5.0),
        (power_family(), power_family().make(3.0), 5.0),
        (logbump_family(1.0), power_family().make(3.0), 5.0),
        (logbump_family(2.0), logbump_family(2.0).make(1.0), 10.0),
        (sinpiecewise_family(), power_family().make(1.5), 2.0),
    ]
    witnesses = 0
    for fam, phi, k in pairs:
        direct = growth_check(fam, phi, k)
        inverse = growth_check_inverse_form(fam, phi, k)
        # the inverse form is the direct scan reported against u = phi(t)
        witness = direct.witness
        if witness is not None:
            q, t1, t2, r1, r2 = witness
            witness = (q, phi(t1), phi(t2), r1, r2)
            witnesses += 1
        assert inverse == direct._replace(interval=(0.0, phi(k)), witness=witness)
    assert witnesses == 1  # logbump against t^3 still fails at q = 32


def test_growth_inverse_form_solves_one_inverse_grid(monkeypatch):
    calls = []
    original = YoungFamily.inverse_grid

    def counted(self, *args, **kwargs):
        calls.append(self.label)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(YoungFamily, "inverse_grid", counted)
    growth_check_inverse_form(logbump_family(1.0), power_family().make(3.0), 5.0)
    assert calls == ["logbump"]  # psi's (u, q) grid only: phi^{-1}(phi(t)) is t


def test_growth_rejects_bad_arguments():
    with pytest.raises(DomainError):
        growth_check(power_family(), power_family().make(2.0), 0.0)


@pytest.mark.parametrize("form", [growth_check, growth_check_inverse_form])
def test_growth_skips_points_where_phi_underflows(form):
    # t^40 underflows to 0 at the small end of (0, 1]; those points are dropped
    # and the exact law q >= 40 shows as a violation at every scheduled q <= 32.
    rep = form(power_family(), power_family().make(40.0), 1.0)
    assert [q for q, _ in rep.per_q] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    assert rep.q_threshold is None and rep.witness[0] == 32.0
    assert not any(ok for _, ok in rep.per_q)
    with pytest.raises(OverflowError, match="below the normal double range"):
        form(power_family(), power_family().make(40.0), 1e-10)  # t^40 is 0 there
    # t^4 is subnormal at the small end of (0, 1e-75]; kept, those points
    # made the direct form fail q = 4, where the ratio is exactly 1.
    rep = form(power_family(), power_family().make(4.0), 1e-75)
    assert rep.q_threshold == 4.0


@pytest.mark.parametrize("form", [growth_check, growth_check_inverse_form])
def test_growth_rejects_phi_overflowing_on_grid(form):
    # t^2 overflows for t > 1.3e154: a valid input the scan cannot resolve,
    # reported as a numeric failure naming phi and the first overflowing t.
    with pytest.raises(OverflowError, match=r"power\[q=2\] overflows at grid point t="):
        form(power_family(), power_family().make(2.0), 1e200)


@pytest.mark.parametrize("form", [growth_check, growth_check_inverse_form])
def test_growth_rejects_a_k_whose_grid_start_underflows(form):
    # 1e-9 * 1e-320 is 0: the grid would start at 0, where numpy refuses a
    # geometric sequence; just above, the start is subnormal but not 0.
    with pytest.raises(OverflowError, match=r"k=1e-320 .* underflows to 0"):
        form(power_family(), power_family().make(2.0), 1e-320)
    with pytest.raises(OverflowError, match="below the normal double range"):
        form(power_family(), power_family().make(2.0), 1e-310)


def test_growth_inverse_form_interval_ends_at_phi_k():
    rep = growth_check_inverse_form(power_family(), power_family().make(3.0), 5.0)
    assert rep.interval == (0.0, 125.0)


@given(st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=30, deadline=None)
def test_growth_power_threshold_tracks_r(r):
    """Smallest passing q is the first schedule point >= r (exact law)."""
    rep = growth_check(power_family(), power_family().make(r), 3.0)
    expected = next(q for q in (1.0, 2.0, 4.0, 8.0) if q >= r - 1e-12)
    assert rep.q_threshold == expected


# ------------------------------------------------ grid path against scalar

def _scalar_path(family: YoungFamily) -> YoungFamily:
    """The family without its array form: every grid evaluates the scalar
    formula ``fn`` cell by cell, and an inverse grid bisects over it in the
    same lockstep as over the array form."""
    return family._replace(array_fn=None)


# A Richardson stage with q^m weights maps errors e1, e2 at nodes q1 < q2 to
# (q2^m e2 - q1^m e1) / (q2^m - q1^m), at most (r^m + 1) / (r^m - 1) times the
# larger for r = q2 / q1.  The closest nodes a probe may accelerate are the
# first two of the odd parity from the lowest start, k = 3 and 5 (r = 11/7),
# and at most two stages run: a factor of about 10.6.
_R = min(b / a for parity in _parity_schedules(1.0) for a, b in zip(parity, parity[1:]))
RICHARDSON_AMPLIFICATION = math.prod((_R ** m + 1.0) / (_R ** m - 1.0) for m in (1, 2))


def _rel(family: YoungFamily, q: float) -> float:
    """The array/scalar rounding bound of ``family``'s member at ``q``:
    numpy's ufuncs may differ from ``math``'s by an ulp."""
    return 8.0 * (family.params.get("p", 1.0) + q + 1.0) * np.finfo(float).eps


@pytest.mark.parametrize("mass", [math.inf, 2.0])
def test_classify_grid_matches_scalar_path(catalog_family, mass):
    space = MeasureSpace(mass)
    got = classify(catalog_family, space)
    want = classify(_scalar_path(catalog_family), space)
    assert got.verdict == want.verdict
    # Each path solves its inverses to the ulp of its own psi, and the two
    # psi differ by the array/scalar rounding bound rel(q); inverses inherit
    # it.  Raw evidence stays within rel(q), accelerated limits within the
    # largest rel(q) times the Richardson amplification.
    def rel(q):
        return _rel(catalog_family, q)

    raw = [(q, v) for _, est in want.inverse_evidence for q, v in est.evidence]
    derived = (rel(max(q for q, _ in raw)) * RICHARDSON_AMPLIFICATION
               * max(abs(v) for _, v in raw))

    def close(a, b, bound):
        return a is b is None or (a == b or abs(a - b) <= bound)

    for a, b in ((got.delta, want.delta), (got.alpha, want.alpha), (got.beta, want.beta)):
        assert close(a, b, derived), (a, b)
    assert [y for y, _ in got.inverse_evidence] == [y for y, _ in want.inverse_evidence]
    for (y, a), (_, b) in zip(got.inverse_evidence, want.inverse_evidence):
        assert a.kind == b.kind, y
        for x1, x2 in ((a.value, b.value), (a.liminf_est, b.liminf_est),
                       (a.limsup_est, b.limsup_est)):
            assert close(x1, x2, derived), (y, x1, x2)
        assert [q for q, _ in a.evidence] == [q for q, _ in b.evidence]
        for (q, va), (_, vb) in zip(a.evidence, b.evidence):
            assert abs(va - vb) <= rel(q) * abs(vb), (y, q)
    # Values come from the family's formula over (t, q) arrays here and from
    # one member per q there: the same up to the array/scalar rounding bound.
    for (t, a), (_, b) in zip(got.value_evidence, want.value_evidence):
        assert a.kind == b.kind, t
        for (qa, va), (qb, vb) in zip(a.evidence, b.evidence):
            assert qa == qb
            assert va == vb or abs(va - vb) <= rel(qa) * abs(vb), (t, qa)


@pytest.mark.parametrize("form", [growth_check, growth_check_inverse_form])
@pytest.mark.parametrize("spec,phi_spec,phi_q,k", GROWTH_PAIRS)
def test_growth_grid_matches_scalar_path(form, spec, phi_spec, phi_q, k):
    family, phi = make_family(spec), make_family(phi_spec).make(phi_q)
    got = form(family, phi, k)
    want = form(_scalar_path(family), phi.family._replace(array_fn=None).make(phi_q), k)
    # The verdicts are exact; the witness points and ratios come from inverses
    # that each path solves to the ulp of its own psi, which differ by rel(q).
    assert (got.interval, got.q_threshold, got.per_q) == \
        (want.interval, want.q_threshold, want.per_q)
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert got.witness[0] == want.witness[0]
        bound = _rel(family, want.witness[0])
        for a, b in zip(got.witness[1:], want.witness[1:]):
            assert abs(a - b) <= bound * abs(b), (got.witness, want.witness)


def test_grid_paths_make_no_scalar_inverse(monkeypatch):
    calls = []

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    family = make_family("logbump:p=2")
    phi = make_family("power").make(3.0)
    count(YoungFunction, "inverse")
    count(YoungFamily, "make")
    for space in (INF, MeasureSpace(2.0)):
        classify(family, space)
    growth_check(family, phi, 5.0)
    growth_check_inverse_form(family, phi, 5.0)
    growth_check(_scalar_path(family), phi, 5.0)
    assert calls == []
    # the counter is live: a member's own inverse passes through it
    family.make(3.0).inverse(2.0)
    assert calls == ["make", "inverse"]


def test_family_without_array_form_gets_same_verdict():
    user = user_power()
    for space in (INF, MeasureSpace(2.0)):
        got, want = classify(user, space), classify(power_family(), space)
        assert (got.verdict, got.delta) == (want.verdict, want.delta) == \
            ("delta_admissible", got.delta)
        assert got.inverse_evidence == want.inverse_evidence


# ------------------------------------------------- staged grid reading

def _single_grid_limits(grid, points, start, lazy):
    """Every point reads the scan and the two parities of the one start from
    one grid over all of their columns.  The eager rule aggregates every
    scan estimate with the parities; the lazy rule of
    :func:`admissibility._limits` only the undetermined or oscillating ones.
    A start past the phase limit has no parities, and each point keeps its
    scan estimate under both."""
    scan = _geometric_schedule(start, _DOUBLINGS)
    locked = _parity_schedules(start)
    qs = sorted(set(scan).union(*locked))
    out = []
    for row in grid(points, qs).tolist():
        value_at = dict(zip(qs, row))

        def estimate(schedule):
            return classify_sequence(schedule, [value_at[q] for q in schedule])
        est = estimate(scan)
        if locked and (not lazy or est.kind in ("undetermined", "oscillating")):
            est = admissibility._aggregate(est, *map(estimate, locked))
        out.append(est)
    return out


def _reference_limits(grid, points, start):
    """The eager rule on one grid: the oracle of every answer but the evidence."""
    return _single_grid_limits(grid, points, start, lazy=False)


def _lazy_reference_limits(grid, points, start):
    """The lazy rule on one grid: the staged reading must reproduce it exactly."""
    return _single_grid_limits(grid, points, start, lazy=True)


TWO_STAGE_FAMILIES = [*CATALOG_SPECS, "iterlog:N=3", "addie:N=3", "identity", "user-power"]


def _two_stage_family(spec):
    shared = {"user-power": user_power, "user-sin": user_sin}
    return shared[spec]() if spec in shared else make_family(spec)


@pytest.mark.parametrize("mass", [math.inf, 2.0, 0.5, 1e6])
@pytest.mark.parametrize("spec", [*TWO_STAGE_FAMILIES, "user-sin"])
def test_classify_answers_equal_eager_rule(spec, mass, monkeypatch):
    # Reading the parities only for open scan estimates shortens the
    # evidence; every verdict, delta, alpha, beta and per-probe kind, value
    # and band stays that of the rule that reads them for every probe.
    family, space = _two_stage_family(spec), MeasureSpace(mass)
    got = classify(family, space)
    monkeypatch.setattr(admissibility, "_limits", _reference_limits)
    assert without_evidence(got) == without_evidence(classify(family, space))


@pytest.mark.parametrize("mass", [math.inf, 2.0])
@pytest.mark.parametrize("spec", TWO_STAGE_FAMILIES)
def test_classify_equals_single_grid_reference(spec, mass, monkeypatch):
    family, space = _two_stage_family(spec), MeasureSpace(mass)
    got = classify(family, space)
    monkeypatch.setattr(admissibility, "_limits", _lazy_reference_limits)
    assert got == classify(family, space)


@pytest.mark.parametrize("spec,t,y", [("sinpiecewise", 0.75, 0.45), ("iterlog:N=2", 2.0, 0.0005),
                                      ("addie:N=2", 0.5, 0.0005), ("power", 1.5, 7.0)])
def test_pointwise_limits_equal_single_grid_reference(spec, t, y, monkeypatch):
    family = make_family(spec)
    got = limit_of_values(family, t), limit_of_inverses(family, y)
    monkeypatch.setattr(admissibility, "_limits", _lazy_reference_limits)
    assert got == (limit_of_values(family, t), limit_of_inverses(family, y))


def _locked_bump(t, q):
    """``t^2`` at the powers of two, ``(2 + sin q) t^2`` at every other q."""
    return (1.0 if math.frexp(q)[0] == 0.5 else 2.0 + math.sin(q)) * t * t


def test_decisive_geometric_estimate_is_not_overridden(monkeypatch):
    # The geometric scan sees only t^2 and settles on sqrt(y); the parities
    # see t^2 and 3 t^2.  The eager rule lets their disagreement override
    # every probe where sqrt(y) and sqrt(y/3) differ by more than the
    # resolution (all but y = 0.0005); the lazy rule never reads them.
    # psi does not move from q = 1 to 2, so every scan starts at q = 1.
    family = YoungFamily("locked-bump", _locked_bump, {}, q_min=1.0)
    lazy = classify(family, INF)
    assert [est.kind for _, est in lazy.inverse_evidence] == ["finite"] * 7
    for _, est in lazy.inverse_evidence + lazy.value_evidence:
        assert est.kind in ("finite", "zero", "infinite")
        assert [q for q, _ in est.evidence] == list(GEO)
    monkeypatch.setattr(admissibility, "_limits", _reference_limits)
    eager = classify(family, INF)
    assert [est.kind for _, est in eager.inverse_evidence] == ["finite"] + ["oscillating"] * 6


def _record_inverse_grids(monkeypatch):
    calls = []
    original = YoungFamily.inverse_grid

    def recorded(self, ys, qs):
        calls.append((list(ys), list(qs)))
        return original(self, ys, qs)
    monkeypatch.setattr(YoungFamily, "inverse_grid", recorded)
    return calls


def test_settled_probes_solve_only_the_first_stage(monkeypatch):
    # For t^q, log psi = q log t: every probe starts at the power of two
    # nearest (1 + max |log y|) / log t for the t of _T_GRID nearest 1, and
    # that one scan settles them all.
    calls = _record_inverse_grids(monkeypatch)
    report = classify(power_family(), INF)
    spread = max(abs(math.log(y)) for y in _Y_GRID)
    start = 2.0 ** round(math.log2((1.0 + spread) / math.log(_T_GRID[17])))
    assert start == 64.0
    scan = list(_geometric_schedule(start, _DOUBLINGS))
    assert calls == [(list(_Y_GRID), scan)] and len(scan) == 13
    for _, est in report.inverse_evidence:
        assert [q for q, _ in est.evidence] == scan
    for _, est in report.value_evidence:
        assert len(est.evidence) == _DOUBLINGS + 1


@pytest.mark.parametrize("spec", ["power", "iterlog:N=2", "addie:N=3", "sinpiecewise"])
def test_value_probes_share_one_start(spec, monkeypatch):
    # One start per side.  Every value probe scans from where an inverse
    # probe at y = 1 does, in classify and in limit_of_values alike; every
    # inverse probe from where the widest level, y = 0.0005, does alone.
    family = make_family(spec)
    calls = _record_inverse_grids(monkeypatch)
    report = classify(family, INF)
    starts = {est.evidence[0][0] for _, est in report.value_evidence}
    assert len(starts) == 1
    start = starts.pop()
    assert {limit_of_values(family, t).evidence[0][0] for t in _T_GRID} == {start}
    assert admissibility._scans(family, (1.0,))[0] == start
    y_starts = {est.evidence[0][0] for _, est in report.inverse_evidence}
    assert y_starts == {limit_of_inverses(family, 0.0005).evidence[0][0]}
    assert len(calls[0][1]) == 13


@pytest.mark.parametrize("t, kind", [(1.0001, "infinite"), (1 + 1e-10, "infinite"),
                                     (1 - 1e-10, "zero")])
def test_value_probe_off_the_grid_waits_for_its_own_scale(t, kind):
    # t^q near t = 1 sets in far beyond the grid's scale (q = 4): the scan
    # starts no earlier than t's own slope gives, about 1/|log t|.
    est = limit_of_values(power_family(), t)
    assert est.kind == kind
    assert est.evidence[0][0] >= 0.5 / abs(math.log(t))


def test_open_probes_alone_read_the_parities(monkeypatch):
    calls = _record_inverse_grids(monkeypatch)
    family = sinpiecewise_family()
    report = classify(family, INF)
    start = admissibility._scans(family, _Y_GRID)[0]
    scan = list(_geometric_schedule(start, _DOUBLINGS))
    odd, even = _parity_schedules(start)
    parity = set(odd + even)
    # the scan leaves y < 1/2 oscillating, and only those probes read the 26
    # parity q of the one start, from one more grid
    assert calls == [(list(_Y_GRID), scan), ([0.0005, 0.02, 0.2, 0.45], list(odd + even))]
    assert len(parity) == 2 * (_DOUBLINGS + 1) and min(parity) >= start
    for y, est in report.inverse_evidence:
        read = {q for q, _ in est.evidence}
        assert read == (set(scan) | parity if y <= 0.45 else set(scan)), y


# ------------------------------------------------- parities at the probe's scale

def test_parities_keep_the_phase_to_the_phase_limit():
    # Each parity of every start up to 2^33 holds sin q at its +-1 in 50
    # digits; from 2^34 on its last k would pass 2^44, and there is none.
    with mpmath.workdps(50):
        for j in range(34):
            start = 2.0 ** j
            odd, even = _parity_schedules(start)
            assert len(odd) == len(even) == _DOUBLINGS + 1 and min(odd + even) >= start
            for parity, sign in ((odd, -1), (even, 1)):
                for q in parity:
                    assert abs(mpmath.sin(mpmath.mpf(q)) - sign) <= 1e-5, (start, q)
    assert _parity_schedules(2.0 ** 34) == ()


@pytest.mark.parametrize("s", [1, 64, 1024])
def test_open_probes_read_the_parities_at_their_own_scale(s):
    # Each probe scans from about s * 2^11 on; parities read below that, or
    # none at all, leave its open probes undetermined.
    report = classify(slowed_sinpiecewise(s), INF)
    assert report.verdict == "alpha_beta_admissible"
    assert report.alpha == pytest.approx(0.5005, abs=1e-3)
    assert report.beta == pytest.approx(1.0000004, abs=1e-3)


def test_a_probe_past_the_phase_limit_keeps_its_scan_estimate():
    # Every probe of the family slowed 2^34-fold starts past 2^34; its scan
    # leaves y = 0.45 oscillating, and no parity cross-examines it.
    family = slowed_sinpiecewise(2 ** 34)
    start = admissibility._scans(family, (0.45,))[0]
    assert start >= 2.0 ** 34 and _parity_schedules(start) == ()
    est = limit_of_inverses(family, 0.45)
    assert [q for q, _ in est.evidence] == list(_geometric_schedule(start, _DOUBLINGS))
    assert est.kind == "oscillating"
    assert est == classify_sequence(*zip(*est.evidence))


# ------------------------------------------------- oracle beyond delta = 1

KNOWN_LIMIT_MASSES = [math.inf, 2.0, 0.01]


@pytest.mark.parametrize("mass", KNOWN_LIMIT_MASSES)
@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("c", SCALED_DELTAS)
def test_classify_finds_a_known_delta(c, p, mass):
    report = classify(scaled(p, c), MeasureSpace(mass))
    assert report.verdict == "delta_admissible"
    assert abs(report.delta - c) <= 1e-5 * c, report.delta


@pytest.mark.parametrize("mass", KNOWN_LIMIT_MASSES)
@pytest.mark.parametrize("p", [1.0, 3.0])
@pytest.mark.parametrize("c0,eps", SCALED_BANDS)
def test_classify_finds_a_known_band(c0, eps, p, mass):
    report = classify(scaled(p, c0, eps), MeasureSpace(mass))
    assert report.verdict == "alpha_beta_admissible"
    lo, hi = c0 * (1.0 - eps), c0 * (1.0 + eps)
    assert abs(report.alpha - lo) <= 1e-5 * lo, report.alpha
    assert abs(report.beta - hi) <= 1e-5 * hi, report.beta


def test_norms_approach_the_known_limit_from_above():
    # For t (t/3)^q the norm of f tends to ||f||_inf / 3.  The top atom
    # gives psi_q(3) * 1 = 3 > 1 at lam = 2/3, so every norm lies above it.
    f = SimpleFunction(((2.0, 1.0), (1.0, 3.0)), INF)
    norms = [luxemburg_norm(scaled(1.0, 3.0).make(q), f).norm for q in (64.0, 1024.0, 2.0 ** 16)]
    assert all(a > b > 2.0 / 3.0 for a, b in zip(norms, norms[1:])), norms
    assert norms[-1] - 2.0 / 3.0 <= 2e-5, norms
