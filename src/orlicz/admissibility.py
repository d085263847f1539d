"""Limit diagnostics for one-parameter Young families.

Three layers:

* sequence classification — given values of ``psi_q(t)`` or ``psi_q^{-1}(y)``
  along an increasing q-schedule, decide between ``zero``, ``finite``,
  ``infinite``, ``oscillating`` and ``undetermined`` using the tail of the
  schedule plus Richardson acceleration (one stage eliminates a ``C/q`` error
  term, a second stage the ``C/q^2`` term);
* admissibility verdicts — probe inverse values over a y-grid (the inverse
  side characterizes the admissibility thresholds), cross-examine a probe
  whose geometric scan leaves its limit open (undetermined or oscillating)
  with two phase-locked subsequences ``q = pi/2 + k*pi`` at ``k = 2^i`` and
  ``2^i + 1`` from the scan's start (which freezes ``sin q`` at ``+-1`` and
  exposes genuinely oscillating families), and corroborate against the
  value side, which can veto but never establish a verdict;
* growth-ratio monotonicity and the log-bump transfer function with its
  exponential comparison map.

Each verdict reads its samples from grids.  A :func:`classify` call first
evaluates ``psi`` on the value grid at ``q1 = max(q_min, 1)`` and ``2 q1``;
by one rule, the slopes of ``log psi`` between them set the one start every
inverse probe's geometric scan shares, and the one every value probe
shares.  It then solves its inverses in at most two ``family.inverse_grid``
stages: every probe reads the one scan, and only the probes left open there
read the two parities of its start, geometric like the scan.  Its values
come from one ``family.evaluate_grid`` over every q either side may read,
which is also the grid the Young axioms are checked on.  A growth
scan reads one ``inverse_grid`` over ``(u, q)``.

Everything is deterministic and pure; reports are immutable named tuples.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import lru_cache
from typing import Literal, NamedTuple, Sequence

from . import _ADMISSIBILITY
from .luxemburg import _reciprocal
from .measure import MeasureSpace
from .young import (DomainError, E_MINUS_1, YoungFamily, YoungFunction, _float,
                    _nonneg, _positive, logbump_family)

__all__ = sorted(_ADMISSIBILITY)

Kind = Literal["zero", "finite", "infinite", "oscillating", "undetermined"]


# The gates of every limit verdict.  _CLASS_TOL is the resolution of every
# verdict: limits closer together than it are not distinguished, and
# extrapolated limits smaller than _ZERO_TOL (half of it) count as zero.
_TAIL_LEN = 5
_BIG_VALUE = 1e12
_SMALL_VALUE = 1e-12
_FLAT_TOL = 1e-5
_OSC_TOL = 1e-3
_CLASS_TOL = 1e-2
_ZERO_TOL = 5e-3
_GROWTH_FACTOR = 4.0
_BIG_SLOPE = 1e2
_DOUBLINGS = 12
# The largest i whose phase-locked q = pi/2 + k*pi at k = 2^i and 2^i + 1 keep
# sin q within 1e-5 of +-1 in doubles (mpmath: 6.5e-6 at 2^44, 1.4e-4 at 2^46).
_PHASE_I_MAX = 44
_MARGIN = 0.05
_MONO_TOL = 1e-8
_CASE_II_SLACK = 1e-6

# 33 geometrically spaced value-side probes on [0.05, 20]: the doubles of
# numpy.geomspace(0.05, 20.0, 33), written out so importing needs no numpy.
_T_GRID = (
    0.05, 0.06029542755153481, 0.07271077167244767, 0.08768254131184518,
    0.1057371263440564, 0.12750930481971073, 0.15376456101806876,
    0.1854259989771704, 0.22360679774997896, 0.2696493494752911,
    0.32517245631211816, 0.39212824562643883, 0.47287080450158786,
    0.5702389466812295, 0.6876560219336321, 0.8292502770175191, 1.0,
    1.2059085510306964, 1.4542154334489537, 1.753650826236904,
    2.114742526881128, 2.550186096394215, 3.075291220361376,
    3.7085199795434085, 4.47213595499958, 5.392986989505823,
    6.503449126242364, 7.842564912528778, 9.457416090031758,
    11.404778933624593, 13.753120438672644, 16.585005540350384, 20.0,
)
_Y_GRID = (0.0005, 0.02, 0.2, 0.45, 0.75, 2.0, 10.0)
# growth scans: u-grid size and q-schedule length; T_c fixed-point check
_GROWTH_POINTS = 161
_GROWTH_DOUBLINGS = 5
_TC_GRID_POINTS = 64
_TC_TOL = 1e-8
# Relative slack of the convexity check: a chord slope may fall by this much
# of itself, which is rounding, before a member counts as not convex.
_CONVEX_TOL = 1e-12


class LimitEstimate(NamedTuple):
    """Verdict for one sequence ``q -> value`` along a schedule.

    For ``finite`` kinds ``value`` is the accelerated limit and both liminf
    and limsup estimates equal it; for ``oscillating`` the two estimates are
    the separated subsequence limits.  ``evidence`` holds the raw ``(q,
    value)`` pairs sorted by ``q``.
    """

    kind: Kind
    value: float | None
    liminf_est: float
    limsup_est: float
    evidence: tuple[tuple[float, float], ...]


@lru_cache(maxsize=128)
def _geometric_schedule(q0: float, doublings: int) -> tuple[float, ...]:
    """``q0 * 2^j`` for ``j = 0..doublings``, each exact.

    ``q0`` comes from a family's ``q_min`` or from a probe's scale, so a
    last q beyond the double range raises :class:`DomainError`.
    """
    if math.frexp(q0)[1] + doublings > sys.float_info.max_exp:
        raise DomainError(f"q0 * 2^doublings is beyond the double range for "
                          f"q0={q0!r}, doublings={doublings!r}")
    return tuple(math.ldexp(q0, j) for j in range(doublings + 1))


def _richardson_stage(nodes: Sequence[float], vals: Sequence[float],
                      m: int) -> list[float]:
    """One Richardson stage with ``q^m`` weights: eliminates a ``C/q^m`` tail
    term between consecutive entries.  Non-finite inputs propagate as nan.
    The output aligns with ``nodes[1:]``.
    """
    out = []
    for (q1, v1), (q2, v2) in zip(zip(nodes, vals), zip(nodes[1:], vals[1:])):
        if math.isfinite(v1) and math.isfinite(v2):
            w1, w2 = q1 ** m, q2 ** m
            out.append((w2 * v2 - w1 * v1) / (w2 - w1))
        else:
            out.append(math.nan)
    return out


def _stable_tail(vals: Sequence[float], n: int, tol: float) -> float | None:
    """Last value when the tail of ``vals`` has settled within ``tol``."""
    tail = vals[-n:]
    if len(tail) < 2 or not all(math.isfinite(v) for v in tail):
        return None
    if max(tail) - min(tail) <= tol * max(1.0, abs(tail[-1])):
        return tail[-1]
    return None


def classify_sequence(qs: Sequence[float], vs: Sequence[float]) -> LimitEstimate:
    """Apply the tail decision rule to one sampled sequence.

    Order of tests: a flat tail (sequences with exponentially fast settling,
    where acceleration in ``1/q`` would only amplify the residue; a flat
    tail within ``zero_tol`` of 0 is zero); monotone
    divergence (tail beyond ``big_value``, or sustained growth with a large
    accelerated slope); monotone decay (tail below ``small_value``, or the
    accelerated tail extrapolating below ``zero_tol``); a stable accelerated
    limit after two Richardson stages; alternating oscillation; otherwise
    undetermined.  A monotone tail that still drifts after two stages is
    undetermined: ``1 + 95/q + 4.5e3/q^2 + 2e5/q^3`` on ``q = 1, 2, ...,
    4096`` is, and its limit shows only from a later start.  A NaN value
    raises :class:`ArithmeticError` naming the first q that has one; ``qs``
    and ``vs`` of different lengths, or empty, an int beyond the double
    range in either, and ``qs`` that are not finite, positive and strictly
    increasing raise :class:`DomainError`.
    """
    try:
        qs, vs = tuple(map(float, qs)), tuple(map(float, vs))
    except OverflowError:  # an int beyond the doubles
        raise DomainError("qs and vs must be within the double range") from None
    if len(qs) != len(vs) or not qs:
        raise DomainError(f"qs and vs must have the same length > 0, "
                          f"got {len(qs)} and {len(vs)}")
    # one C-level pass: this runs for every probe and scan of a classify
    if not (0.0 < qs[0] and qs[-1] < math.inf and all(map(operator.lt, qs, qs[1:]))):
        raise DomainError("qs must be finite, positive and strictly increasing")
    evidence = tuple(zip(qs, vs))
    if math.isnan(sum(vs)):  # a cheap screen: true for any NaN (and for inf - inf)
        for q, v in evidence:
            if math.isnan(v):
                raise ArithmeticError(f"sequence value at q={q!r} is NaN")
    n = min(_TAIL_LEN, len(vs))
    tail = vs[-n:]
    lim_lo, lim_hi = min(tail), max(tail)
    nondec = all(b >= a for a, b in zip(tail, tail[1:]))
    noninc = all(b <= a for a, b in zip(tail, tail[1:]))

    flat = _stable_tail(vs, n, _FLAT_TOL)
    if flat is not None:
        if abs(flat) <= _ZERO_TOL:
            return LimitEstimate("zero", None, 0.0, 0.0, evidence)
        return LimitEstimate("finite", flat, flat, flat, evidence)

    # Only the last n entries of each stage are read, and stage m needs m
    # more nodes than that: accelerate the window of the last n + 2 only.
    window = qs[-(n + 2):]
    r1 = _richardson_stage(window, vs[-(n + 2):], 1)
    r2 = _richardson_stage(window[1:], r1, 2)
    r1_tail = r1[-n:]
    r1_ok = all(math.isfinite(r) for r in r1_tail) and len(r1_tail) >= 2

    if nondec and (tail[-1] > _BIG_VALUE or
                   (tail[0] > 0.0 and tail[-1] >= _GROWTH_FACTOR * tail[0]
                    and r1_ok and r1_tail[-1] > _BIG_SLOPE)):
        return LimitEstimate("infinite", None, math.inf, math.inf, evidence)

    if noninc and (tail[-1] < _SMALL_VALUE or
                   (r1_ok and abs(r1_tail[-1]) <= _ZERO_TOL
                    and abs(r1_tail[-2]) <= _ZERO_TOL)):
        return LimitEstimate("zero", None, 0.0, 0.0, evidence)

    value = _stable_tail(r2, n, _OSC_TOL)
    if value is not None:
        return LimitEstimate("finite", value, value, value, evidence)

    deltas = [b - a for a, b in zip(tail, tail[1:])]
    alternating = len(deltas) >= 3 and all(
        d1 * d2 < 0.0 for d1, d2 in zip(deltas, deltas[1:]))
    if alternating and (lim_hi - lim_lo) > _OSC_TOL * max(1.0, abs(tail[-1])):
        return LimitEstimate("oscillating", None, lim_lo, lim_hi, evidence)

    return LimitEstimate("undetermined", None, lim_lo, lim_hi, evidence)


def limit_of_values(family: YoungFamily, t: float) -> LimitEstimate:
    """Classify ``q -> psi_q(t)``.

    The geometric scan starts where every value probe's does, at the scale
    an inverse probe at ``y = 1`` reads, with ``t``'s own slope among the
    33 (see :func:`_scans`): a ``t`` on the value grid starts where
    :func:`classify` reads it, and one off the grid no earlier than its own
    limit sets in.  When the scan leaves the limit undetermined or
    oscillating, the two phase-locked subsequences of that start (needed to
    certify oscillation, see :func:`_parity_schedules`) are read and
    aggregated with it.
    """
    t = _positive("t", t)
    return _limits(family.evaluate_grid, (t,), _scans(family, (), t)[1])[0]


def limit_of_inverses(family: YoungFamily, y: float) -> LimitEstimate:
    """Classify ``q -> psi_q^{-1}(y)``, read as in :func:`limit_of_values`
    from the scale :func:`_scans` gives ``y`` alone: its start is its own,
    where :func:`classify` reads every probe from the start of the widest."""
    y = _positive("y", y)
    return _limits(family.inverse_grid, (y,), _scans(family, (y,))[0])[0]


def _scans(family: YoungFamily, ys, t=None) -> tuple[float, float, list[float]]:
    """Where the scan of every inverse probe in ``ys`` starts, where every
    value probe's starts, and every q that either side of :func:`classify`
    may read, sorted: both slope columns, and both scans with the two
    parities of their starts.

    At each ``t`` of the value grid, ``log psi_q(t) = a + q b`` on the line
    through ``q1 = max(q_min, 1)`` and ``2 q1``, exact for a family whose
    ``log psi`` is linear in q.  From ``q = (1 + |a| + L) / |b|`` on, ``q
    |b|`` outweighs the offset ``|a|`` and a probe's spread ``L = |log
    y|``: the limit sets in there.  The inverse probes read together share
    one start, the largest of these scales over the 33 ``t`` with ``L`` the
    largest ``|log y|`` over ``ys``, so no probe starts before its own limit
    sets in; the limit is the same from any later start.  The value probes
    share the start an inverse probe at ``y = 1`` reads, with ``L = 0``.  A
    value probe ``t`` off the grid adds its own slope to the 33, so that it
    never starts before its own limit sets in.  A ``t`` where ``b = 0`` (the
    anchor ``t = 1``) or ``log psi`` is not finite gives none (see
    :func:`_start`).
    """
    import numpy as np
    q1, q2 = _geometric_schedule(max(family.q_min, 1.0), 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # psi 0 or inf
        l1, l2 = np.log(family.evaluate_grid(_T_GRID + (() if t is None else (t,)), (q1, q2))).T
        b = np.where(np.isfinite(l2 - l1) & (l1 != l2), np.abs(l2 - l1) / q1, np.nan)
        offset = 1.0 + np.abs(2.0 * l1 - l2)  # 1 + |a|
        spread = max((abs(math.log(y)) for y in ys), default=0.0)
        starts = [_start(q1, np.fmax.reduce((offset + L) / b)) for L in (spread, 0.0)]
    qs = {q1, q2}.union(*(_geometric_schedule(start, _DOUBLINGS) for start in starts),
                        *(p for start in starts for p in _parity_schedules(start)))
    return *starts, sorted(qs)


def _start(q1: float, scale: float) -> float:
    """Where a geometric scan starts: the power of two nearest ``scale``,
    and at least ``q1``; ``q1`` for a NaN scale (no ``t`` gave one) and for
    an infinite one (a slope too small to divide by)."""
    return max(q1, 2.0 ** round(math.log2(scale))) if scale < math.inf else q1


@lru_cache(maxsize=64)
def _parity_schedules(start: float) -> tuple[tuple[float, ...], ...]:
    """The odd-k and the even-k phase-locked ``q = pi/2 + k*pi`` that
    cross-examine a scan from ``start``: ``k = 2^i + 1`` (``sin q = -1``) and
    ``k = 2^i`` (``+1``) for ``_DOUBLINGS + 1`` consecutive i, from the first
    i >= 1 with ``2^i pi >= start``.  Both are geometric, like the scan, and
    every q is at least ``start``.  None past ``_PHASE_I_MAX``, where a double
    q no longer freezes ``sin q``: the one condition of the parity stage."""
    first = max(1, math.ceil(math.log2(start / math.pi)))
    if first + _DOUBLINGS > _PHASE_I_MAX:
        return ()
    ks = [2 ** i for i in range(first, first + _DOUBLINGS + 1)]
    return tuple(tuple(math.pi / 2.0 + (k + odd) * math.pi for k in ks) for odd in (1, 0))


def _limits(grid, points: Sequence[float], start: float) -> list[LimitEstimate]:
    """One estimate per point, read from at most two grids.

    Every point reads the geometric scan of ``_DOUBLINGS`` doublings from
    one ``start``, all from one ``grid(points, scan)``.  A decisive estimate
    (``finite``, ``zero``, ``infinite``) is the point's estimate, with its
    own evidence.  Only the points whose scan is undetermined or oscillating
    read the two parities of the start, ``odd + even`` from one more grid,
    and :func:`_aggregate` cross-examines them; a start past the phase limit
    has none, and each point keeps its scan estimate.  Each cell is solved
    on its own, so a point's estimate is the one a single grid over every
    column would give under the same rule.
    """
    scan = _geometric_schedule(start, _DOUBLINGS)
    ests = [classify_sequence(scan, row) for row in grid(points, scan).tolist()]
    redo = [i for i, est in enumerate(ests) if est.kind in ("undetermined", "oscillating")]
    parities = _parity_schedules(start)
    if redo and parities:
        odd, even = parities
        for i, row in zip(redo, grid([points[i] for i in redo], odd + even).tolist()):
            ests[i] = _aggregate(ests[i], classify_sequence(odd, row[:len(odd)]),
                                 classify_sequence(even, row[len(odd):]))
    return ests


class AdmissibilityReport(NamedTuple):
    """Classification of a family over a measure-space context.

    ``verdict`` is one of ``delta_admissible``, ``alpha_beta_admissible``,
    ``inadmissible_divergent``, ``inadmissible_vanishing``, ``undetermined``.
    Evidence pairs map each probe (a ``y`` for the inverse side, a ``t`` for
    the value side) to its aggregated :class:`LimitEstimate`.
    """

    verdict: str
    delta: float | None
    alpha: float | None
    beta: float | None
    context_mass: float
    inverse_evidence: tuple[tuple[float, LimitEstimate], ...]
    value_evidence: tuple[tuple[float, LimitEstimate], ...]


def _aggregate(geo: LimitEstimate, odd: LimitEstimate,
               even: LimitEstimate) -> LimitEstimate:
    """Cross-examine an open geometric estimate with the two phase-locked ones.

    :func:`_limits` calls it only for a geometric estimate that is
    undetermined or oscillating, with the two parities of its start.
    Disagreeing finite parity limits make it oscillating with their band
    (that is exactly the oscillation signature the phase lock exists to
    expose); an oscillating geometric estimate stands otherwise; agreeing
    decisive parity verdicts rescue an undetermined geometric tail.  The
    evidence merges every schedule read.
    """
    parts = (geo, odd, even)
    ev = tuple(sorted(set(p for est in parts for p in est.evidence)))

    if odd.kind == even.kind == "finite" and abs(odd.value - even.value) > _CLASS_TOL:
        lo, hi = sorted((odd.value, even.value))
        return LimitEstimate("oscillating", None, lo, hi, ev)

    if geo.kind != "undetermined":
        return geo._replace(evidence=ev)

    if odd.kind == even.kind:
        if odd.kind == "finite":  # agree within class_tol by the test above
            value = 0.5 * (odd.value + even.value)
            return LimitEstimate("finite", value, value, value, ev)
        if odd.kind in ("zero", "infinite"):
            return odd._replace(evidence=ev)

    lo = min(p.liminf_est for p in parts)
    hi = max(p.limsup_est for p in parts)
    return LimitEstimate("undetermined", None, lo, hi, ev)


def classify(family: YoungFamily, space: MeasureSpace) -> AdmissibilityReport:
    """Admissibility verdict from inverse-limit probes with value-side vetoes.

    The inverse side is the characterization: a common finite inverse limit
    ``delta`` across probes yields ``delta_admissible``; separated or spread
    finite limits yield ``alpha_beta_admissible`` with the band ``[alpha,
    beta]`` spanned by all probe limits; inverse limits collapsing to 0 mean
    the members blow up pointwise (norms diverge), inverse limits growing
    without bound mean they vanish pointwise (norms vanish).  For a finite
    total mass only probes ``y >= 1/total_mass`` are meaningful and the
    below-threshold value limits must stay under ``1/total_mass``.

    The value side never establishes a verdict; a decisive value-side limit
    that contradicts the candidate (bounded above ``beta``, or failing to
    decay below ``alpha``) downgrades the verdict to ``undetermined``.  A
    total mass so small that ``1/total_mass`` overflows raises
    :class:`OverflowError`.  A member not strictly increasing or not convex
    on the value grid, 33 ``t`` by every q that either side may read, raises
    :class:`DomainError` (see :func:`_check_young`).
    """
    mass_floor = _reciprocal("total_mass", space.total_mass) if space.finite else 0.0
    ys = tuple(sorted(set(y for y in _Y_GRID if y >= mass_floor)
                      | ({mass_floor} if space.finite else set())))
    y_start, t_start, qs = _scans(family, ys)
    inverse_evidence = tuple(zip(ys, _limits(family.inverse_grid, ys, y_start)))
    # Every q either side may read, in one grid the Young check covers whole.
    grid = family.evaluate_grid(_T_GRID, qs)
    _check_young(family, _T_GRID, qs, grid)
    column = {q: j for j, q in enumerate(qs)}

    def value_grid(ts, cols):
        return grid[[_T_GRID.index(t) for t in ts]][:, [column[q] for q in cols]]
    value_evidence = tuple(zip(_T_GRID, _limits(value_grid, _T_GRID, t_start)))

    def report(verdict: str, delta=None, alpha=None, beta=None) -> AdmissibilityReport:
        return AdmissibilityReport(verdict, delta, alpha, beta, space.total_mass,
                                   inverse_evidence, value_evidence)

    kinds = [est.kind for _, est in inverse_evidence]

    if all(k == "zero" for k in kinds):
        return report("inadmissible_divergent")
    if all(k == "infinite" for k in kinds):
        return report("inadmissible_vanishing")

    if all(k == "finite" for k in kinds):
        values = sorted(est.value for _, est in inverse_evidence)
        half = len(values) // 2  # the median
        delta = values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2
        if all(abs(v - delta) <= _CLASS_TOL for v in values):
            if _value_side_veto(value_evidence, delta, delta, mass_floor):
                return report("undetermined")
            return report("delta_admissible", delta=delta)

    if all(k in ("zero", "finite", "oscillating") for k in kinds):
        # not all zero (handled above): a zero probe pins alpha at 0
        bands = [(est.liminf_est, est.limsup_est) for _, est in inverse_evidence
                 if est.kind != "zero"]
        alpha = 0.0 if "zero" in kinds else min(lo for lo, _ in bands)
        beta = max(hi for _, hi in bands)
        if _value_side_veto(value_evidence, alpha, beta, mass_floor):
            return report("undetermined")
        return report("alpha_beta_admissible", alpha=alpha, beta=beta)

    return report("undetermined")


def _check_young(family: YoungFamily, ts, qs, grid) -> None:
    """Raise :class:`DomainError` when the values ``grid[i, j] = psi_qj(ts[i])``
    show a member that is not a Young function.

    In each column, ``psi`` must increase strictly between consecutive ``t``,
    and the chord slopes over consecutive ``t`` must not fall by more than
    ``_CONVEX_TOL`` of themselves.  A pair or triple with a cell that is 0,
    ``inf`` or NaN is skipped: under- and overflow hide the order, and a NaN
    is the tail rule's to report.  The message names the axiom, the member
    and the witness ``t``.
    """
    import numpy as np
    ts = np.asarray(ts, dtype=float).reshape(-1, 1)
    usable = (grid > 0.0) & (grid < math.inf)  # false for NaN
    pair = usable[1:] & usable[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf where psi overflows
        rise = np.diff(grid, axis=0)
        slopes = rise / np.diff(ts, axis=0)
        drop = slopes[:-1] - slopes[1:]
        concave = pair[1:] & pair[:-1] & (drop > _CONVEX_TOL * np.abs(slopes[:-1]))
    for bad, axiom, width in ((pair & ~(rise > 0.0), "increasing", 2), (concave, "convex", 3)):
        if bad.any():
            j, i = np.argwhere(bad.T)[0]  # the first q, then the first t
            witness = ", ".join(f"{t:g}" for t in ts[i:i + width, 0])
            raise DomainError(f"{YoungFunction(family, float(qs[j])).label}: "
                              f"not {axiom} on t={witness}")


def _value_side_veto(value_evidence, alpha: float, beta: float,
                     mass_floor: float) -> bool:
    """True when a decisive value-side limit contradicts the candidate band.

    Above ``beta`` the members must blow up, so a limit classified zero or
    finite there is a contradiction.  Below ``alpha`` (infinite mass,
    ``mass_floor = 0``) they must vanish, so infinite or finite-nonzero
    limits contradict; with finite total mass the limit must stay strictly
    below ``mass_floor = 1/total_mass``.
    Undetermined value limits never veto — the inverse side carries the
    verdict and slow pointwise growth near the threshold is expected.
    """
    for t, est in value_evidence:
        if t > beta * (1.0 + _MARGIN):
            if est.kind in ("zero", "finite", "oscillating"):
                return True
        elif alpha > 0.0 and t < alpha * (1.0 - _MARGIN):
            if est.kind == "infinite":
                return True
            if est.kind in ("finite", "oscillating"):
                high = est.limsup_est
                if mass_floor:
                    if high >= mass_floor * (1.0 - _CASE_II_SLACK):
                        return True
                elif high > _ZERO_TOL:
                    return True
    return False


class MonotonicityReport(NamedTuple):
    """Result of a non-decreasing scan of a growth ratio over a grid.

    ``q_threshold`` is the smallest scheduled q from which every larger
    scheduled q passes, and ``None`` when the largest one fails (the ratio is
    then not non-decreasing); ``witness`` is ``(q, t1, t2, ratio1, ratio2)``
    for the largest failing q when no threshold exists.
    """

    interval: tuple[float, float]
    q_threshold: float | None
    witness: tuple[float, float, float, float, float] | None
    per_q: tuple[tuple[float, bool], ...]


def _growth_scan(family: YoungFamily, phi: YoungFunction, k: float) -> MonotonicityReport:
    """The one growth scan: ``t / psi_q^{-1}(phi(t))`` on ``(0, k]``, which
    both public forms report.

    ``psi_q^{-1}`` is read on the u-grid ``u = phi(t)``, solved as one grid
    over ``(u, q)``.  Points where ``phi(t)`` is below the normal double range
    are dropped: at 0 the ratio is a 0/0 form, and a subnormal ``u`` carries
    too few bits for its inverse to resolve ``t``.  Fewer than two points
    left, ``phi(t)`` overflowing at any point, or a ``k`` so small that the
    grid start ``1e-9 * k`` underflows to 0 raise :class:`OverflowError`.
    """
    k = _positive("k", k)
    start = 1e-9 * k
    if start == 0.0:
        raise OverflowError(f"k={k!r} is so small that the grid start 1e-9 * k "
                            f"underflows to 0")
    import numpy as np
    points = [(t, phi(t)) for t in np.geomspace(start, k, _GROWTH_POINTS).tolist()]
    for t, u in points:
        if math.isinf(u):
            raise OverflowError(f"{phi.label} overflows at grid point t={t!r} on (0, {k!r}]")
    points = [(t, u) for t, u in points if u >= sys.float_info.min]
    if len(points) < 2:
        raise OverflowError(f"{phi.label} is below the normal double range at all but "
                            f"{len(points)} of the {_GROWTH_POINTS} grid points on "
                            f"(0, {k!r}]")
    ts, us = map(list, zip(*points))
    qs = _geometric_schedule(max(family.q_min, 1.0), _GROWTH_DOUBLINGS)
    with np.errstate(over="ignore", invalid="ignore"):  # a ratio may overflow, inf - inf
        rs = np.asarray(ts)[:, None] / family.inverse_grid(us, qs)
        drops = rs[:-1] - rs[1:]
        fails = drops > _MONO_TOL * np.maximum(1.0, np.abs(rs[:-1]))  # false for NaN
    per_q = tuple(zip(qs, (~fails.any(axis=0)).tolist()))
    threshold = None
    for q, ok in reversed(per_q):
        if not ok:
            break
        threshold = q
    if threshold is not None:
        return MonotonicityReport((0.0, k), threshold, None, per_q)
    # no threshold: the largest q failed; its witness is its first largest drop
    i = int(np.argmax(np.where(fails[:, -1], drops[:, -1], -np.inf)))
    r1, r2 = rs[i:i + 2, -1].tolist()
    return MonotonicityReport((0.0, k), None, (qs[-1], ts[i], ts[i + 1], r1, r2), per_q)


def growth_check(family: YoungFamily, phi: YoungFunction, k: float) -> MonotonicityReport:
    """Scan ``t -> t / psi_q^{-1}(phi(t))`` for non-decrease on ``(0, k]``.

    The grid is geometric from ``1e-9 * k`` to ``k``; the left endpoint 0 is
    excluded (the ratio is a 0/0 form there), and so is every point where
    ``phi(t)`` is below the normal double range.
    """
    return _growth_scan(family, phi, k)


def growth_check_inverse_form(family: YoungFamily, phi: YoungFunction,
                              k: float) -> MonotonicityReport:
    """The scan of :func:`growth_check` reported against ``u = phi(t)``.

    In u the ratio reads ``phi^{-1}(u) / psi_q^{-1}(u)`` on ``(0, phi(k)]``,
    and ``phi^{-1}(u) = t``: the q, the ratios and ``per_q`` are the direct
    scan's, the interval ends on ``phi(k)``, and the witness points are
    ``phi(t1)``, ``phi(t2)``.
    """
    report = _growth_scan(family, phi, k)
    if report.witness is not None:
        q, t1, t2, r1, r2 = report.witness
        report = report._replace(witness=(q, phi(t1), phi(t2), r1, r2))
    return report._replace(interval=(0.0, phi(report.interval[1])))


def _transfer_params(p: float, q0: float, q: float) -> tuple[float, float, float]:
    """``(p, q0, q)`` as floats, after checking ``p >= 1`` and ``0 < q0 < q``."""
    p, q0, q = _float("p", p), _float("q0", q0), _float("q", q)
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"p must be >= 1, got {p!r}")
    if not (math.isfinite(q0) and math.isfinite(q) and 0.0 < q0 < q):
        raise DomainError(f"need 0 < q0 < q, got q0={q0!r}, q={q!r}")
    return p, q0, q


def logbump_transfer(p: float, q0: float, q: float, t: float) -> float:
    """Transfer factor ``F(t) = t / psi_q^{-1}(psi_q0(t))`` for the log-bump
    family with exponent ``p``.

    At ``t = 0`` the continuous extension is ``log(e-1)^((q-q0)/p)``.  ``F``
    satisfies ``F(t)^p * log(e-1+t)^q0 = log(e-1 + t/F(t))^q`` and exceeds
    ``F(0)`` for every ``t > 0`` when ``q > q0``.  A ``t`` whose
    ``psi_q0(t)`` overflows, or falls below the normal double range where
    its inverse can no longer resolve ``t``, raises :class:`OverflowError`.
    """
    p, q0, q = _transfer_params(p, q0, q)
    t = _nonneg("t", t)
    if t == 0.0:
        return math.log(E_MINUS_1) ** ((q - q0) / p)
    fam = logbump_family(p)
    y = fam.make(q0)(t)
    if y == math.inf:
        raise OverflowError(f"psi_q0({t!r}) is beyond the double range for "
                            f"p={p!r}, q0={q0!r}")
    if y < sys.float_info.min:
        raise OverflowError(f"psi_q0({t!r}) is below the normal double range for "
                            f"p={p!r}, q0={q0!r}")
    return t / fam.make(q).inverse(y)


def _tc_map(p: float, q0: float, q: float, c: float, t: float) -> float:
    """Comparison map ``T_c(t) = c * exp(c^(p/q) * log(e-1+t)^(q0/q)) - c*(e-1)``."""
    return c * math.exp(c ** (p / q) * math.log(E_MINUS_1 + t) ** (q0 / q)) \
        - c * E_MINUS_1


class FixedPointReport(NamedTuple):
    """Fixed-point residual of ``T_c`` plus the concavity predicate on a grid:
    the grid points where it fails, none when it holds on the whole grid."""

    fixed_point_ok: bool
    residual: float
    predicate_failures: tuple[float, ...]


def tc_fixed_point_check(p: float, q0: float, q: float, c: float,
                         t1: float) -> FixedPointReport:
    """Check ``T_c(t1) = t1`` for ``c = logbump_transfer(p, q0, q, t1)``.

    ``p``, ``q0`` and ``q`` are checked as in :func:`logbump_transfer`.  Also
    evaluates the concavity predicate
    ``q0 * c^(p/q) * log(e-1+t)^(q0/q) < q * log(e-1+t) + q - q0``
    on 64 evenly spaced points of ``[0, max(1, 2 * t1)]`` and reports the
    failing points; a ``t1`` whose ``2 * t1`` overflows raises
    :class:`OverflowError`.
    """
    p, q0, q = _transfer_params(p, q0, q)
    c, t1 = _positive("c", c), _positive("t1", t1)

    residual = abs(_tc_map(p, q0, q, c, t1) - t1)
    ok = residual <= _TC_TOL * max(1.0, t1)

    hi = max(1.0, 2.0 * t1)
    if hi == math.inf:
        raise OverflowError(f"the grid end 2 * t1 is beyond the double range "
                            f"for t1={t1!r}")
    # numpy.linspace(0, hi, n), bit for bit: i * (hi / (n - 1)), ending on hi
    step = hi / (_TC_GRID_POINTS - 1)
    failures = []
    for t in [i * step for i in range(_TC_GRID_POINTS - 1)] + [hi]:
        lhs = q0 * c ** (p / q) * math.log(E_MINUS_1 + t) ** (q0 / q)
        rhs = q * math.log(E_MINUS_1 + t) + q - q0
        if not lhs < rhs:
            failures.append(t)
    return FixedPointReport(ok, residual, tuple(failures))
