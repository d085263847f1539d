"""Correctness oracle, independent of the program and used outside timing.

Norms are checked with mpmath at 50 digits against the family formulas as
documented (exact constants ``e - 1`` and anchors ``c_N = exp^N(1) - 1``),
not against the program's double-precision helpers.  A returned norm ``lam``
is right when the exact modular satisfies
``M(lam * (1 - 1e-12)) >= 1 >= M(lam * (1 + 1e-12))``.  A raised
``ArithmeticError`` is a correct refusal only when the true norm lies outside
the normal double range, where no double can meet that 1e-12 bracket.

Every check returns one of three outcomes:

* ``OK``: the answer is right, or a refusal is justified;
* ``REFUSED``: the program raised, exited non-zero or answered
  ``undetermined`` where a representable answer exists -- a failed operation;
* ``WRONG``: the program returned a wrong value or verdict -- a failed
  operation that also makes the run incorrect.
"""

from __future__ import annotations

import math
import sys

import mpmath
from mpmath import mp, mpf

mp.dps = 50

OK, REFUSED, WRONG = "ok", "refused", "wrong"

DBL_MIN = mpf(sys.float_info.min)
DBL_MAX = mpf(sys.float_info.max)
REL = mpf("1e-12")


def _iter_log(x, n):
    for _ in range(n):
        x = mpmath.log(x)
    return x


def _anchor(n: int):
    """``c`` with ``L_n(c + 1) = 1``: ``c + 1`` is ``exp`` applied n times to 1."""
    x = mpf(1)
    for _ in range(n):
        x = mpmath.exp(x)
    return x - 1


def _parse(spec: str) -> tuple[str, dict]:
    name, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        params[key] = int(value) if key == "N" else float(value)
    return name, params


def psi(spec: str, q: float):
    """The member ``Psi_q`` of the catalog family ``spec`` as an mpf function."""
    name, params = _parse(spec)
    p = mpf(params.get("p", 1.0))
    N = params.get("N", 1)
    q = mpf(q)
    if name == "power":
        return lambda x: x ** q
    if name == "logbump":
        e1 = mpmath.e - 1
        return lambda x: x ** p * mpmath.log(e1 + x) ** q
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
    if name == "identity":
        return lambda x: x
    raise ValueError(f"oracle has no family {spec!r}")


def modular(member, atoms, lam) -> mpf:
    """Exact ``sum m * Psi(a / lam)``."""
    lam = mpf(lam)
    return mpmath.fsum(mpf(m) * member(mpf(a) / lam) for a, m in atoms)


def check_norm(spec: str, q: float, atoms, outcome) -> str:
    """Judge one ``luxemburg_norm`` outcome: a float, or a raised exception."""
    member = psi(spec, q)
    if isinstance(outcome, BaseException):
        if not isinstance(outcome, ArithmeticError):
            return REFUSED
        # M decreases in lam, so the true norm is a normal double exactly when
        # M(DBL_MIN) >= 1 >= M(DBL_MAX).
        representable = (modular(member, atoms, DBL_MIN) >= 1
                         and modular(member, atoms, DBL_MAX) <= 1)
        return REFUSED if representable else OK
    lam = mpf(outcome)
    if not (math.isfinite(outcome) and outcome > 0.0):
        return WRONG
    inside = (modular(member, atoms, lam * (1 - REL)) >= 1
              and modular(member, atoms, lam * (1 + REL)) <= 1)
    return OK if inside else WRONG


# Verdicts claimed by the README family catalog.  Every delta-admissible
# family has delta = 1; sinpiecewise oscillates with (alpha, beta) = (0.5, 1)
# on infinite mass and is delta-admissible on total mass 2.
VERDICT_TOL = 0.01


def expected_verdict(spec: str, mass: float) -> tuple:
    name, _ = _parse(spec)
    if name == "sinpiecewise" and math.isinf(mass):
        return ("alpha_beta_admissible", None, 0.5, 1.0)
    if name == "powerlog_e":
        return ("inadmissible_divergent", None, None, None)
    if name == "identity":
        return ("undetermined", None, None, None)
    return ("delta_admissible", 1.0, None, None)


def check_verdict(spec: str, mass: float, outcome) -> str:
    """Judge one ``classify`` outcome ``(verdict, delta, alpha, beta)``."""
    if isinstance(outcome, BaseException):
        return REFUSED
    want = expected_verdict(spec, mass)
    if outcome[0] == "undetermined" and want[0] != "undetermined":
        return REFUSED
    if outcome[0] != want[0]:
        return WRONG
    for got, expected in zip(outcome[1:], want[1:]):
        if (got is None) != (expected is None):
            return WRONG
        if expected is not None and abs(got - expected) > VERDICT_TOL:
            return WRONG
    return OK


def check_growth_pair(direct, inverse_form) -> str:
    """The direct and inverse-form scans must reach the same per-q verdicts."""
    if isinstance(direct, BaseException) or isinstance(inverse_form, BaseException):
        return REFUSED
    return OK if direct == inverse_form else WRONG


def check_transfer(p: float, q0: float, q: float, ts, outcome, tol: float = 1e-9) -> str:
    """``F(t)^p * log(e-1+t)^q0 = log(e-1+t/F(t))^q`` at every grid point."""
    if isinstance(outcome, BaseException):
        return REFUSED
    e1 = mpmath.e - 1
    for t, F in zip(ts, outcome):
        t, F = mpf(t), mpf(F)
        lhs = F ** p * mpmath.log(e1 + t) ** q0
        rhs = mpmath.log(e1 + t / F) ** q
        if not abs(lhs / rhs - 1) <= tol:
            return WRONG
    return OK


def worst(outcomes) -> str:
    """Combine several checks of one operation."""
    outcomes = set(outcomes)
    return WRONG if WRONG in outcomes else REFUSED if REFUSED in outcomes else OK
