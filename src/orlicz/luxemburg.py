"""Modular integrals and Luxemburg norms of simple functions.

For a simple function ``f`` with atoms ``(a_i, m_i)`` the modular is the exact
finite sum ``sum_i m_i * psi(a_i / lam)``.  It is strictly decreasing in
``lam`` for nonzero ``f``, runs from ``inf`` down to ``0``, and the Luxemburg
norm is the unique ``lam`` with modular equal to 1 — solved here as an
equation, never as an inequality scan.

The solver searches every positive double for the point where
``modular > 1`` turns false, on the ordered bit patterns of the floats
(:func:`orlicz.young._root`): no bracket to seed or grow, two adjacent
doubles at the end whatever the scale of ``f``, and at most 67 modular
evaluations, about 10 on average.  That exact test alone decides each step;
``log modular`` only places the next probe, by ITP interpolation.  The
first probe is ``ess_sup(f)``: the paper's limit puts the norm at
``C * ||f||_inf`` for large ``q``.  A term whose argument ``a_i / lam`` or
whose value overflows counts as ``+inf``, which is the correct side for
bracketing (a huge modular just means ``lam`` is too small), when its mass
is at least ``1 / DBL_MAX``.  Below that mass the other terms must decide
the side, or :class:`OverflowError` says that doubles cannot.

A norm solve builds its modular once, by :func:`_modular_of`, and each
probe calls that kernel; the public :func:`modular` checks ``lam`` and calls
the same kernel.  A function with at least ``_ARRAY_MIN_ATOMS`` atoms has
its modular evaluated in one numpy pass, ``masses @ family._psi_array(values
/ lam, q, ...)``, the family's unchecked array kernel; a smaller one keeps
the Python loop over its atoms, because numpy's fixed per-call cost
outweighs the loop below a few dozen atoms.  The loop calls the formula
``fn(t, q)`` itself and states ``family._psi``'s two rules for its terms,
``psi(0) = 0`` and overflow to ``inf``: a small solve is mostly per-call
overhead, and a ``_psi`` call per atom was a large share of it.  The loop
alone applies the overflow rule above: the array pass hands over to it when
its largest argument or its sum overflows.  numpy is imported when the
kernel of a large function is built, so the norms of small functions never
load it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .measure import SimpleFunction, distribution, ess_sup
from .young import BracketError, YoungFunction, _positive, _root

__all__ = [
    "NormResult",
    "chebyshev_bound",
    "indicator_norm",
    "luxemburg_norm",
    "modular",
]

# Measured crossover of numpy's per-call cost against the scalar loop, the
# least atom count from which the array pass of one modular at the norm of
# log-normal atoms is no slower, on one x86-64 CPU with Python 3.11 and numpy
# 2.4 (two rounds): about 18-24 atoms (addie:N=2, addie:N=3), 24-28 (addie),
# 32-44 (iterlog, logbump), 40-48 (power, powerlog_e), 56-64 (identity) and
# 88-96 (sinpiecewise).  No one value suits every family; 32 is near the
# middle of the catalog.
_ARRAY_MIN_ATOMS = 32


class NormResult(NamedTuple):
    """The norm, its modular, and how the search reached it.

    ``iterations`` counts the search steps, one modular evaluation each: at
    most 67, typically about 10.  ``bracket`` is the pair of adjacent doubles
    around the root; ``norm`` is the one whose modular is closer to 1.
    """

    norm: float
    modular_at_norm: float
    iterations: int
    bracket: tuple[float, float]


def modular(psi: YoungFunction, f: SimpleFunction, lam: float) -> float:
    """Exact modular ``sum_i m_i * psi(a_i / lam)`` for ``lam > 0``.

    A NaN sum (possible only for a user-built ``psi``) raises
    :class:`ArithmeticError` rather than being returned as a number.  A term
    whose argument ``a_i / lam`` or whose value overflows exceeds its mass
    times the largest double, so it decides ``modular > 1`` when that product
    is at least 1, and the modular is ``inf``.  A smaller mass (below about
    5.6e-309) leaves the side to the other terms; when they sum to at most 1,
    doubles cannot decide it and :class:`OverflowError` names the member,
    ``lam`` and the mass.  A sum that overflows is ``inf`` too.
    """
    return _modular_of(psi, f)(_positive("lambda", lam))


def _modular_of(psi: YoungFunction, f: SimpleFunction) -> Callable[[float], float]:
    """The modular of ``f`` under ``psi`` as an unchecked function of
    ``lam > 0``, with the rules of :func:`modular`.  The formula, ``q``, the
    atoms and the path are bound here, so a call makes no call per atom but
    ``fn(t, q)``."""
    fn, q, atoms, inf = psi.family.fn, psi.q, f.atoms, math.inf

    def loop(lam: float) -> float:
        total, tiny = 0.0, None
        for value, mass in atoms:
            t = value / lam
            if 0.0 < t < inf:
                try:
                    term = mass * fn(t, q)
                except OverflowError:
                    term = inf
            elif t == 0.0:  # the values decrease: every later term is 0 too
                break
            else:
                term = inf
            if term != inf:
                total += term
            elif mass * sys.float_info.max >= 1.0:
                return inf
            else:
                tiny = mass
        if tiny is not None:
            if total <= 1.0:
                raise OverflowError(f"{psi.label}: the modular at lambda={lam!r} is beyond "
                                    f"the double range: psi overflows on an atom of mass "
                                    f"{tiny!r}")
            return inf
        if math.isnan(total):
            raise _nan_modular(psi, lam)
        return total
    if len(atoms) < _ARRAY_MIN_ATOMS:
        return loop
    import numpy as np
    top, values, masses, psi_array = atoms[0][0], f.values, f.masses, psi.family._psi_array

    def array_pass(lam: float) -> float:
        if top / lam < inf:
            with np.errstate(over="ignore", under="ignore"):
                ts = values / lam  # positive and decreasing: only the last can be 0
                total = float(masses @ psi_array(ts, q, ts[-1] == 0.0))
            if total != inf:
                if math.isnan(total):
                    raise _nan_modular(psi, lam)
                return total
        return loop(lam)  # also where the array pass overflows
    return array_pass


def _nan_modular(psi: YoungFunction, lam: float) -> ArithmeticError:
    return ArithmeticError(f"{psi.label}: modular at lambda={lam!r} is NaN")


def indicator_norm(psi: YoungFunction, mass: float) -> float:
    """Closed-form norm of an indicator: ``1 / psi^{-1}(1 / mass)``.  A mass
    so small that ``1 / mass`` overflows, or so large that the norm does
    (``t`` at a mass near the largest double), raises :class:`OverflowError`."""
    m = _positive("mass", mass)
    return _finite("the norm", 1.0 / psi.inverse(_reciprocal("mass", m)), "mass", m)


def luxemburg_norm(psi: YoungFunction, f: SimpleFunction) -> NormResult:
    """Solve ``modular(psi, f, lam) = 1`` for the Luxemburg norm.

    The search closes on two adjacent doubles around the root, so the modular
    at the returned point is within rounding of 1 even for very steep members
    (large ``q``); of the two the one whose modular is closer to 1 is
    reported, from the values the search already probed, and ``iterations``
    counts the search steps, which are all the modular evaluations.  The
    first step probes ``ess_sup(f)``.  A norm above the largest double or
    below the smallest normal one raises :class:`BracketError`: a subnormal
    carries too few significant bits to be an answer.
    """
    if not f.atoms:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))
    seen: dict[float, float] = {}
    modular_at = _modular_of(psi, f)

    def probe(lam: float) -> tuple[bool, float]:
        m = seen[lam] = modular_at(lam)
        return m > 1.0, math.log(m) if m > 0.0 else -math.inf

    lo, hi = _root(probe, ess_sup(f))
    if hi == math.inf or lo < sys.float_info.min:
        raise BracketError(f"{psi.label}: the norm lies outside the double range "
                           f"[{sys.float_info.min!r}, {sys.float_info.max!r}] "
                           f"(bracket [{lo!r}, {hi!r}])")
    m_lo, m_hi = seen[lo], seen[hi]
    if abs(m_lo - 1.0) <= abs(m_hi - 1.0):
        return NormResult(lo, m_lo, len(seen), (lo, hi))
    return NormResult(hi, m_hi, len(seen), (lo, hi))


def chebyshev_bound(psi: YoungFunction, f: SimpleFunction, alpha: float) -> float:
    """Distribution-based lower bound ``alpha / psi^{-1}(1 / mu(|f| >= alpha))``.

    Always dominated by the Luxemburg norm; 0 when the superlevel set is
    empty.  A superlevel mass beyond the double range or so small that its
    reciprocal is, and a bound beyond the double range (``t`` at a mass near
    the largest double), raise :class:`OverflowError`.
    """
    a = _positive("alpha", alpha)
    d = distribution(f, a)
    if d == 0.0:
        return 0.0
    if math.isinf(d):
        raise OverflowError(f"the mass of {{|f| >= {a!r}}} is beyond the double range")
    what = f"mu(|f| >= {a!r})"
    return _finite("the bound", a / psi.inverse(_reciprocal(what, d)), what, d)


def _reciprocal(what: str, m: float) -> float:
    """``1/m`` for the mass ``what = m``; :class:`OverflowError` when that
    is beyond the double range."""
    y = 1.0 / m
    if y == math.inf:
        raise OverflowError(f"1/{what} is beyond the double range for {what}={m!r}")
    return y


def _finite(name: str, x: float, what: str, m: float) -> float:
    """``x``, the norm or bound ``name`` for the mass ``what = m``;
    :class:`OverflowError` when it is beyond the double range."""
    if x == math.inf:
        raise OverflowError(f"{name} is beyond the double range for {what}={m!r}")
    return x
