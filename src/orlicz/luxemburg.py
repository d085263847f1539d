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
evaluations, about 13 on average.  That exact test alone decides each step;
``log modular`` only places the next probe, by ITP interpolation.  A term
whose argument ``a_i / lam`` or whose value overflows counts as ``+inf``,
which is the correct side for bracketing (a huge modular just means ``lam``
is too small).

A function with at least ``_ARRAY_MIN_ATOMS`` atoms has its modular evaluated
in one numpy pass, ``masses @ psi(values / lam)``; a smaller one keeps the
Python loop over its atoms, because numpy's fixed per-call cost outweighs the
loop below a few dozen atoms.  numpy is imported on the first such pass, so
the norms of small functions never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .measure import SimpleFunction, distribution
from .young import BracketError, DomainError, YoungFunction, _root

__all__ = [
    "NormResult",
    "chebyshev_bound",
    "indicator_norm",
    "luxemburg_norm",
    "modular",
]

# Measured crossover of numpy's per-call cost against the scalar loop: 12-32
# atoms depending on the family.
_ARRAY_MIN_ATOMS = 32


@dataclass(frozen=True)
class NormResult:
    """The norm, its modular, and how the search reached it.

    ``iterations`` counts the search steps, one modular evaluation each: at
    most 67, typically about 13.  ``bracket`` is the pair of adjacent doubles
    around the root; ``norm`` is the one whose modular is closer to 1.
    """

    norm: float
    modular_at_norm: float
    iterations: int
    bracket: tuple[float, float]


def modular(psi: YoungFunction, f: SimpleFunction, lam: float) -> float:
    """Exact modular ``sum_i m_i * psi(a_i / lam)`` for ``lam > 0``.

    A NaN sum (possible only for a user-built ``psi``) raises
    :class:`ArithmeticError` rather than being returned as a number.
    """
    lam = float(lam)
    if math.isnan(lam) or math.isinf(lam) or lam <= 0.0:
        raise DomainError(f"lambda must be positive and finite, got {lam!r}")
    if f.atoms and f.atoms[0][0] / lam == math.inf:
        return math.inf  # the largest value over lam overflows
    if len(f.atoms) >= _ARRAY_MIN_ATOMS:
        import numpy as np
        with np.errstate(over="ignore", under="ignore"):
            total = float(f.masses @ psi.evaluate(f.values / lam))
    else:
        total = 0.0
        for value, mass in f.atoms:
            term = mass * psi(value / lam)
            if math.isinf(term):
                return math.inf
            total += term
    if math.isnan(total):
        raise ArithmeticError(f"{psi.label}: modular at lambda={lam!r} is NaN")
    return total


def indicator_norm(psi: YoungFunction, mass: float) -> float:
    """Closed-form norm of an indicator: ``1 / psi^{-1}(1 / mass)``."""
    m = float(mass)
    if math.isnan(m) or math.isinf(m) or m <= 0.0:
        raise DomainError(f"mass must be positive and finite, got {mass!r}")
    return 1.0 / psi.inverse(1.0 / m)


def luxemburg_norm(psi: YoungFunction, f: SimpleFunction) -> NormResult:
    """Solve ``modular(psi, f, lam) = 1`` for the Luxemburg norm.

    The search closes on two adjacent doubles around the root, so the modular
    at the returned point is within rounding of 1 even for very steep members
    (large ``q``); of the two the one whose modular is closer to 1 is
    reported, from the values the search already probed, and ``iterations``
    counts the search steps, which are all the modular evaluations.  A norm
    above the largest double or below the smallest normal one raises
    :class:`BracketError`: a subnormal carries too few significant bits to
    be an answer.
    """
    if not f.atoms:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))
    seen: dict[float, float] = {}

    def probe(lam: float) -> tuple[bool, float]:
        m = seen[lam] = modular(psi, f, lam)
        return m > 1.0, math.log(m) if m > 0.0 else -math.inf

    lo, hi = _root(probe)
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
    empty.  A superlevel mass beyond the double range raises
    :class:`OverflowError`.
    """
    a = float(alpha)
    if math.isnan(a) or math.isinf(a) or a <= 0.0:
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    d = distribution(f, a).mass
    if d == 0.0:
        return 0.0
    if math.isinf(d):
        raise OverflowError(f"the mass of {{|f| >= {a!r}}} is beyond the double range")
    return a / psi.inverse(1.0 / d)
