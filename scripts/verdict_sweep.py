#!/usr/bin/env python3
"""Every ``classify`` answer over a fixed set of families and total masses.

Prints one line per case, ``label params mass verdict delta alpha beta``,
with each number as its ``repr``, so that ``diff`` of two runs names the
case whose answer moved.  A call that raises prints the exception's class
in place of the verdict.  The families (72), those past the catalog from
``cases.py``:

* ``logbump`` and ``powerlog_e`` at p in {1, 1.5, 2, 3, 5};
* ``iterlog`` and ``addie`` at N in {1, 2, 3} and the same p;
* ``power``, ``sinpiecewise``, ``identity`` and ``user-power`` (``t^q``
  without an array form);
* ``scaled``, ``t^p (t / c)^q`` for the seven c of ``SCALED_DELTAS`` and p
  in {1, 3} (delta = c), and ``t^p (t / c0 (1 + eps sin q))^q`` for the four
  (c0, eps) of ``SCALED_BANDS`` and the same p (the band
  ``[c0 (1 - eps), c0 (1 + eps)]``);
* ``sinpiecewise`` slowed s-fold, s in {1, 64, 1024};
* ``damped``, ``t (t / 2 (1 + 0.02 sin q / q^(1/4)))^q`` (delta = 2, an
  oscillation that dies out slowly);
* ``vanish``, ``t^2 / (4 q^2)`` (inadmissible: vanishing), and ``user-sin``,
  ``t^(2 + sin q)``.

Each family is classified on the 12 total masses of ``MASSES``.

    PYTHONPATH=src python scripts/verdict_sweep.py > verdicts.txt
"""

from __future__ import annotations

import math
import sys

from cases import (SCALED_BANDS, SCALED_DELTAS, damped, scaled, slowed_sinpiecewise,
                   user_power, user_sin, vanishing)
from orlicz import MeasureSpace, YoungFamily, classify, make_family

PS = (1.0, 1.5, 2.0, 3.0, 5.0)
SLOWDOWNS = (1, 64, 1024)
MASSES = (math.inf, 1000.0, 100.0, 10.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.01, 1e-3)


def families() -> list[YoungFamily]:
    specs = [f"{name}:p={p:g}" for name in ("logbump", "powerlog_e") for p in PS]
    specs += [f"{name}:N={n},p={p:g}" for name in ("iterlog", "addie")
              for n in (1, 2, 3) for p in PS]
    specs += ["power", "sinpiecewise", "identity"]
    out = [make_family(spec) for spec in specs]
    out.append(user_power())
    out += [scaled(p, c) for c in SCALED_DELTAS for p in (1.0, 3.0)]
    out += [scaled(p, c0, eps) for c0, eps in SCALED_BANDS for p in (1.0, 3.0)]
    out += [slowed_sinpiecewise(s) for s in SLOWDOWNS]
    out += [damped(), vanishing(), user_sin()]
    return out


def main() -> int:
    for family in families():
        params = ",".join(f"{key}={value!r}" for key, value in family.params.items())
        for mass in MASSES:
            try:
                report = classify(family, MeasureSpace(mass))
                answer = (report.verdict, report.delta, report.alpha, report.beta)
            except (ValueError, ArithmeticError) as exc:
                answer = (type(exc).__name__, None, None, None)
            print(family.label, params or "-", repr(mass), *map(str, answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
