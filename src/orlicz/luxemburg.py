"""Modular integrals and Luxemburg norms of simple functions.

For a simple function ``f`` with atoms ``(a_i, m_i)`` the modular is the exact
finite sum ``sum_i m_i * psi(a_i / lam)``.  It is strictly decreasing in
``lam`` for nonzero ``f``, runs from ``inf`` down to ``0``, and the Luxemburg
norm is the unique ``lam`` with modular equal to 1 — solved here as an
equation, never as an inequality scan.

The solver seeds its bracket from two indicator closed forms:

* ``hi = ess_sup(f) / psi^{-1}(1 / support_mass)`` dominates the norm, because
  replacing every value by the largest one can only increase the modular;
* ``lo = ess_sup(f) / psi^{-1}(1 / top_mass)`` is dominated by the norm, since
  keeping only the top atom can only decrease the modular.

Overflowing modular evaluations count as ``+inf``, which is the correct side
for bracketing (a huge modular just means ``lam`` is too small).

A function with at least ``_ARRAY_MIN_ATOMS`` atoms has its modular evaluated
in one numpy pass, ``masses @ psi(values / lam)``; a smaller one keeps the
Python loop over its atoms, because numpy's fixed per-call cost outweighs the
loop below a few dozen atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import SimpleFunction, distribution
from .young import BracketError, DomainError, YoungFunction

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
    if len(f.atoms) >= _ARRAY_MIN_ATOMS:
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


def luxemburg_norm(psi: YoungFunction, f: SimpleFunction,
                   max_iter: int = 200) -> NormResult:
    """Solve ``modular(psi, f, lam) = 1`` for the Luxemburg norm.

    Bisection runs down to a few ulps of relative width so that the modular at
    the returned point stays within ``~q * eps`` of 1 even for very steep
    members (large ``q``); of the two final endpoints the one whose modular is
    closest to 1 is reported.
    """
    if not f.atoms:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))
    amax, top_mass = f.atoms[0]
    support = f.support_mass

    hi = amax / psi.inverse(1.0 / support)
    lo = hi if top_mass >= support else amax / psi.inverse(1.0 / top_mass)
    if lo > hi:
        lo, hi = hi, lo

    iterations = 0
    while not 0.0 < hi < math.inf or modular(psi, f, hi) > 1.0:
        if not 0.0 < hi < math.inf:
            raise BracketError(f"{psi.label}: the norm lies outside the double range "
                               f"(upper bracket {hi!r})")
        hi *= 2.0
        iterations += 1
        if iterations > max_iter:
            raise BracketError(f"{psi.label}: no upper bracket for the norm")
    while modular(psi, f, lo) < 1.0:
        lo *= 0.5
        iterations += 1
        if iterations > max_iter or lo == 0.0:
            raise BracketError(f"{psi.label}: no lower bracket for the norm")

    while iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        iterations += 1
        if modular(psi, f, mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4e-16 * hi:
            break

    m_lo = modular(psi, f, lo)
    m_hi = modular(psi, f, hi)
    if abs(m_lo - 1.0) <= abs(m_hi - 1.0):
        return NormResult(lo, m_lo, iterations, (lo, hi))
    return NormResult(hi, m_hi, iterations, (lo, hi))


def chebyshev_bound(psi: YoungFunction, f: SimpleFunction, alpha: float) -> float:
    """Distribution-based lower bound ``alpha / psi^{-1}(1 / mu(|f| >= alpha))``.

    Always dominated by the Luxemburg norm; 0 when the superlevel set is
    empty.
    """
    a = float(alpha)
    if math.isnan(a) or math.isinf(a) or a <= 0.0:
        raise DomainError(f"alpha must be positive and finite, got {alpha!r}")
    d = distribution(f, a).mass
    if d == 0.0:
        return 0.0
    if math.isinf(d):
        raise DomainError("superlevel set has infinite measure")
    return a / psi.inverse(1.0 / d)
