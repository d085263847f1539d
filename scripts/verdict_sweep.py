#!/usr/bin/env python3
"""Every ``classify`` answer over a fixed set of families and total masses.

Prints one line per case, ``label params mass verdict delta alpha beta``,
with each number as its ``repr``, so that ``diff`` of two runs names the
case whose answer moved.  A call that raises prints the exception's class
in place of the verdict.  The families (70):

* ``logbump`` and ``powerlog_e`` at p in {1, 1.5, 2, 3, 5};
* ``iterlog`` and ``addie`` at N in {1, 2, 3} and the same p;
* ``power``, ``sinpiecewise``, ``identity`` and ``user-power`` (``t^q``
  without an array form);
* ``scaled``, ``t^p (t / c)^q`` for seven c and p in {1, 3} (delta = c), and
  ``t^p (t / c0 (1 + eps sin q))^q`` for four (c0, eps) and the same p (the
  band ``[c0 (1 - eps), c0 (1 + eps)]``);
* ``sinpiecewise`` slowed s-fold, s in {1, 64, 1024};
* ``damped``, ``t (t / 2 (1 + 0.02 sin q / q^(1/4)))^q`` (delta = 2, an
  oscillation that dies out slowly).

Each family is classified on the 12 total masses of ``MASSES``.

    PYTHONPATH=src python scripts/verdict_sweep.py > verdicts.txt
"""

from __future__ import annotations

import math
import sys

import numpy as np

from orlicz import MeasureSpace, YoungFamily, classify, make_family

PS = (1.0, 1.5, 2.0, 3.0, 5.0)
CS = (0.06, 0.3, 1.5, 3.0, 19.0, 100.0, 1000.0)
BANDS = ((1.0, 0.3), (2.0, 0.2), (0.5, 0.5), (5.0, 0.1))
SLOWDOWNS = (1, 64, 1024)
MASSES = (math.inf, 1000.0, 100.0, 10.0, 2.0, 1.0, 0.5, 0.2, 0.1, 0.05, 0.01, 1e-3)


def scaled(p, c, eps=0.0):
    """``t^p (t / c (1 + eps sin q))^q``."""
    def fn(t, q):
        return t ** p * (t / (c * (1.0 + eps * math.sin(q)))) ** q

    def array_fn(t, q):
        return t ** p * (t / (c * (1.0 + eps * np.sin(q)))) ** q
    return YoungFamily("scaled", fn, {"p": p, "c": c, "eps": eps}, q_min=1.0,
                       array_fn=array_fn)


def slowed_sinpiecewise(s):
    """``(t^(q/s) + bump^(2 + sin q)) / 2``: ``sinpiecewise``'s band at s
    times its scale."""
    def fn(t, q):
        bump = max(2.0 * t - 1.0, 0.0)
        return 0.5 * (t ** (q / s) + bump ** (2.0 + math.sin(q) if t < 1.0 else 3.0))

    def array_fn(t, q):
        bump = np.maximum(2.0 * t - 1.0, 0.0)
        return 0.5 * (t ** (q / s) + bump ** np.where(t < 1.0, 2.0 + np.sin(q), 3.0))
    return YoungFamily("sinpiecewise-slowed", fn, {"s": s}, q_min=float(s),
                       array_fn=array_fn)


def damped():
    """``t (t / c(q))^q`` with ``c(q) = 2 (1 + 0.02 sin q / q^(1/4))``."""
    def fn(t, q):
        return t * (t / (2.0 * (1.0 + 0.02 * math.sin(q) / q ** 0.25))) ** q

    def array_fn(t, q):
        return t * (t / (2.0 * (1.0 + 0.02 * np.sin(q) / q ** 0.25))) ** q
    return YoungFamily("damped", fn, {}, q_min=1.0, array_fn=array_fn)


def families() -> list[YoungFamily]:
    specs = [f"{name}:p={p:g}" for name in ("logbump", "powerlog_e") for p in PS]
    specs += [f"{name}:N={n},p={p:g}" for name in ("iterlog", "addie")
              for n in (1, 2, 3) for p in PS]
    specs += ["power", "sinpiecewise", "identity"]
    out = [make_family(spec) for spec in specs]
    out.append(YoungFamily("user-power", lambda t, q: t ** q, {}, q_min=1.0))
    out += [scaled(p, c) for c in CS for p in (1.0, 3.0)]
    out += [scaled(p, c0, eps) for c0, eps in BANDS for p in (1.0, 3.0)]
    out += [slowed_sinpiecewise(s) for s in SLOWDOWNS]
    out.append(damped())
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
