#!/usr/bin/env python3
"""Probes of the root finder ``orlicz.young._root``, family by family.

Two sets of solves, each printed as one line per family with the mean and
the largest number of probes per solve and how many solves took 40 or more:

* ``inverse``: scalar ``psi.inverse(y)`` at every q that ``classify`` may
  read on an infinite space (the two slope columns, the one geometric scan
  every inverse probe reads and the one every value probe reads, and the two
  phase-locked parities of each start) times every probe level of
  ``admissibility._Y_GRID``;
* ``norm``: ``luxemburg_norm`` of the 16 seeded functions of
  ``cases.seeded_functions`` (1-8 atoms, log-normal and 10^+-300) at
  q = 2^0..2^12;
* ``large-q``: ``luxemburg_norm`` of f = {2 on mass 1, 1 on mass 3} under
  the N = 3 members at q = 2^28, 2^30 and 2^32, where the norm is still on
  its way to ||f||_inf = 2.

A probe is one evaluation of psi (inverse) or of the modular (norm).  The
counts wrap the probe that each solve hands to ``_root``; the search itself
runs unchanged.  A solve that ends in ``BracketError`` counts too.

    PYTHONPATH=src python scripts/root_probes.py
"""

from __future__ import annotations

import contextlib
import math
import sys

from cases import seeded_functions
import orlicz
import orlicz.luxemburg as luxemburg
import orlicz.young as young
from orlicz import admissibility

SPECS = ("power", "logbump", "logbump:p=2", "iterlog", "iterlog:N=2", "addie",
         "addie:N=2", "sinpiecewise", "powerlog_e", "identity")
NORM_QS = tuple(2.0 ** j for j in range(13))
LARGE_Q_SPECS = ("iterlog:N=3", "addie:N=3")
LARGE_QS = (2.0 ** 28, 2.0 ** 30, 2.0 ** 32)
LARGE_Q_ATOMS = ((2.0, 1.0), (1.0, 3.0))
LONG = 40  # a solve at or above this many probes is counted apart


def plan_qs(family) -> list[float]:
    """Every q the classifier may read for ``family`` on an infinite space."""
    return admissibility._scans(family, admissibility._Y_GRID)[2]


@contextlib.contextmanager
def counted_roots():
    """Within the block, each ``_root`` call appends its number of probes."""
    counts: list[int] = []
    root = young._root

    def counted(probe, start=None):
        n = 0

        def wrapped(x):
            nonlocal n
            n += 1
            return probe(x)
        try:
            return root(wrapped, start)
        finally:
            counts.append(n)
    young._root = luxemburg._root = counted
    try:
        yield counts
    finally:
        young._root = luxemburg._root = root


def inverse_probes(spec: str) -> list[int]:
    family = orlicz.make_family(spec)
    with counted_roots() as counts:
        for q in plan_qs(family):
            psi = family.make(q)
            for y in admissibility._Y_GRID:
                with contextlib.suppress(orlicz.BracketError):
                    psi.inverse(y)
    return counts


def norm_probes(spec: str) -> list[int]:
    family = orlicz.make_family(spec)
    space = orlicz.MeasureSpace(math.inf)
    functions = [orlicz.SimpleFunction(atoms, space) for _, atoms in seeded_functions()]
    with counted_roots() as counts:
        for q in NORM_QS:
            psi = family.make(q)
            for f in functions:
                with contextlib.suppress(orlicz.BracketError):
                    orlicz.luxemburg_norm(psi, f)
    return counts


def large_q_probes(spec: str) -> list[int]:
    family = orlicz.make_family(spec)
    f = orlicz.SimpleFunction(LARGE_Q_ATOMS, orlicz.MeasureSpace(math.inf))
    with counted_roots() as counts:
        for q in LARGE_QS:
            orlicz.luxemburg_norm(family.make(q), f)
    return counts


def main() -> int:
    print(f"{'solve':8}{'family':14}{'solves':>7}{'mean':>8}{'max':>5}{f'>={LONG}':>6}")
    for kind, probes, specs in (("inverse", inverse_probes, SPECS), ("norm", norm_probes, SPECS),
                                ("large-q", large_q_probes, LARGE_Q_SPECS)):
        for spec in specs:
            counts = probes(spec)
            print(f"{kind:8}{spec:14}{len(counts):7d}{sum(counts) / len(counts):8.2f}"
                  f"{max(counts):5d}{sum(n >= LONG for n in counts):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
