#!/usr/bin/env python3
"""Cost per cell of each catalog family's array kernel, ``_psi_array``.

For every catalog spec, at one q, print the best of ``--repeat`` timings, in
ns per cell, of ``family._psi_array`` on three inputs, each the shape one
caller hands it:

* ``bulk``: the 10,000 atoms of a log-normal simple function (values and
  masses ``lognormvariate(0, 1)``, seed 1) divided by the member's norm, one
  q over a 1-D ``t``, as one probe of the array modular runs it;
* ``walk``: 91 flat cells, ``t`` the inverses of 7 ``y`` by the 13 q
  ``2^0..2^12`` and ``q`` beside it, one step of the ``inverse_grid`` walk
  near its end;
* ``grid``: the 33 ``t`` of the classifier's value grid by 45 geometric q
  from 1 to 4096, an ``evaluate_grid`` call.

Each timing includes the kernel's fixed cost per call (numpy's error-state
switch and the formula's array allocations), which on the 91-cell walk is a
large share.  The bulk member's q is the one ``norm-bulk`` uses; every other
spec runs at q = 16.

    PYTHONPATH=src python scripts/kernel_costs.py --repeat 7
"""

from __future__ import annotations

import argparse
import random
import sys
import timeit

import numpy as np

from orlicz import MeasureSpace, SimpleFunction, luxemburg_norm, make_family
from orlicz.admissibility import _T_GRID, _Y_GRID

SPECS = ("power", "logbump", "logbump:p=2", "iterlog", "iterlog:N=2", "iterlog:N=3",
         "addie", "addie:N=2", "addie:N=3", "sinpiecewise", "powerlog_e", "identity")
BULK_QS = {"power": 4.0, "logbump:p=2": 64.0, "addie:N=2": 16.0, "sinpiecewise": 33.0}
DEFAULT_Q = 16.0
BULK_ATOMS = 10_000
SEED = 1
WALK_QS = tuple(2.0 ** j for j in range(13))
GRID_QS = tuple(np.geomspace(1.0, 4096.0, 45).tolist())
MIN_RUN_S = 0.005  # a timed run repeats the call until it lasts this long


def _inputs(family, q: float) -> tuple[tuple, tuple, tuple]:
    """The ``(ts, qs)`` of the bulk, walk and grid inputs."""
    rng = random.Random(SEED)
    atoms = [(rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
             for _ in range(BULK_ATOMS)]
    f = SimpleFunction(atoms, MeasureSpace(float("inf")))
    bulk = f.values / luxemburg_norm(family.make(q), f).norm
    walk = family.inverse_grid(_Y_GRID, WALK_QS).ravel()
    return ((bulk, q), (walk, np.tile(WALK_QS, len(_Y_GRID))),
            (np.array(_T_GRID).reshape(-1, 1), np.array([GRID_QS])))


def _ns_per_cell(family, ts, qs, repeat: int) -> float:
    zeros = bool((ts == 0.0).any())
    timer = timeit.Timer(lambda: family._psi_array(ts, qs, zeros))
    number = 1
    while timer.timeit(number) < MIN_RUN_S:
        number *= 2
    return min(timer.repeat(repeat, number)) / number / np.broadcast(ts, qs).size * 1e9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per cell (best is kept)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'spec':<14}{'q':>6}{'bulk':>9}{'walk':>9}{'grid':>9}  (ns per cell)")
    for spec in SPECS:
        family = make_family(spec)
        q = BULK_QS.get(spec, DEFAULT_Q)
        costs = [_ns_per_cell(family, ts, qs, args.repeat)
                 for ts, qs in _inputs(family, q)]
        print(f"{spec:<14}{q:>6g}" + "".join(f"{c:>9.1f}" for c in costs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
