"""Verification cases shared by the tests and the scripts, each written once:
families whose limits are known, the root finder's seeded functions, the
growth-check pairs and ``without_evidence``, a report's answers alone.
pytest finds this module on its ``pythonpath``; a script run as
``python scripts/<name>.py`` finds it beside itself.
"""

from __future__ import annotations

import math
import random

import numpy as np

from orlicz import YoungFamily

SCALED_DELTAS = (0.06, 0.3, 1.5, 3.0, 19.0, 100.0, 1000.0)  # c of scaled(p, c)
SCALED_BANDS = ((1.0, 0.3), (2.0, 0.2), (0.5, 0.5), (5.0, 0.1))  # (c0, eps)
# (family, comparison family, comparison q, k): the comparison pairs of
# scripts/run_growth_checks.py.
GROWTH_PAIRS = (("power", "power", 1.5, 5.0), ("power", "power", 2.0, 5.0),
                ("power", "power", 3.0, 5.0), ("logbump", "power", 3.0, 5.0),
                ("logbump", "logbump", 1.0, 10.0),
                ("logbump:p=2", "logbump:p=2", 1.0, 10.0))


def user_power() -> YoungFamily:
    """``t^q`` without an array form: every grid evaluates it cell by cell."""
    return YoungFamily("user-power", lambda t, q: t ** q, {}, q_min=1.0)


def user_sin() -> YoungFamily:
    """``t^(2 + sin q)``: the phase lock freezes it at ``t`` and ``t^3``."""
    return YoungFamily("user-sin", lambda t, q: t ** (2.0 + math.sin(q)), {}, q_min=1.0)


def vanishing() -> YoungFamily:
    """``t^2 / (4 q^2)``: every member vanishes pointwise as q grows, so every
    inverse limit is infinite.  No catalog family does this."""
    return YoungFamily("vanish", lambda t, q: t * t / (4.0 * q * q), {}, q_min=1.0)


def scaled(p: float, c: float, eps: float = 0.0) -> YoungFamily:
    """``t^p (t / c(q))^q`` with ``c(q) = c (1 + eps sin q)``.  Its inverse at
    y is ``c(q) (y c(q)^-p)^(1/(p+q))``, which tends to ``c`` for ``eps = 0``
    (delta = c) and sweeps ``[c (1 - eps), c (1 + eps)]`` otherwise."""
    def fn(t, q):
        return t ** p * (t / (c * (1.0 + eps * math.sin(q)))) ** q

    def array_fn(t, q):
        return t ** p * (t / (c * (1.0 + eps * np.sin(q)))) ** q
    return YoungFamily("scaled", fn, {"p": p, "c": c, "eps": eps}, q_min=1.0,
                       array_fn=array_fn)


def slowed_sinpiecewise(s: float) -> YoungFamily:
    """``sinpiecewise`` slowed s-fold: ``(t^(q/s) + bump^(2 + sin q)) / 2``,
    convex from ``q = s`` on.  Its band is ``sinpiecewise``'s for every s,
    but each probe's scale is s times as large."""
    def fn(t, q):
        bump = max(2.0 * t - 1.0, 0.0)
        return 0.5 * (t ** (q / s) + bump ** (2.0 + math.sin(q) if t < 1.0 else 3.0))

    def array_fn(t, q):
        bump = np.maximum(2.0 * t - 1.0, 0.0)
        return 0.5 * (t ** (q / s) + bump ** np.where(t < 1.0, 2.0 + np.sin(q), 3.0))
    return YoungFamily("sinpiecewise-slowed", fn, {"s": s}, q_min=float(s),
                       array_fn=array_fn)


def damped() -> YoungFamily:
    """``t (t / c(q))^q`` with ``c(q) = 2 (1 + 0.02 sin q / q^(1/4))``: delta
    = 2, but the oscillation dies out too slowly for a geometric scan."""
    def fn(t, q):
        return t * (t / (2.0 * (1.0 + 0.02 * math.sin(q) / q ** 0.25))) ** q

    def array_fn(t, q):
        return t * (t / (2.0 * (1.0 + 0.02 * np.sin(q) / q ** 0.25))) ** q
    return YoungFamily("damped", fn, {}, q_min=1.0, array_fn=array_fn)


def seeded_functions() -> list[tuple[str, tuple[tuple[float, float], ...]]]:
    """``(kind, atoms)`` of 16 simple functions of 1-8 atoms each, whose
    values and masses are ``"lognormal"`` or ``"wide"`` (10^+-300)."""
    rng = random.Random(8)
    out = []
    for n in range(1, 9):
        out.append(("lognormal", tuple((rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
                                       for _ in range(n))))
        out.append(("wide", tuple((10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300))
                                  for _ in range(n))))
    return out


def without_evidence(report):
    """``report`` with every probe's evidence emptied: its answers alone."""
    def strip(evidence):
        return tuple((x, est._replace(evidence=())) for x, est in evidence)
    return report._replace(inverse_evidence=strip(report.inverse_evidence),
                           value_evidence=strip(report.value_evidence))
