"""Host-speed gauges: scale measured times to a host of fixed speed.

On a shared host the speed of one CPU drifts by 30% or more over seconds, as
other tenants come and go, and the work slows with it.  The benchmark reads
a gauge before and after each stretch of timed work and multiplies the
stretch's wall time by ``ref_s / reading``, with the mean of the two readings
as ``reading``.  Every time the benchmark reports is such a scaled time: the
wall time the work would take on a host where the gauge reads ``ref_s``.

Work of different kinds slows by different amounts, so there are two gauges,
each the fastest of three runs of a fixed job that does not involve
``orlicz``:

* ``IN_PROCESS`` times a pure-Python kernel, a modular-like sum of a
  log-bump-like member over 10k atoms.  It gauges the library work done
  inside the benchmark process.
* ``processes(env)`` times the start of a bare interpreter,
  ``python -S -c pass``.  It gauges work made of process start and imports:
  CLI processes and set-up in a fresh interpreter.  On the host this was
  written on, the in-process kernel followed CLI processes worse than raw
  wall time did (12% against 10% spread), while this gauge brought them to
  0.5%.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

READS = 3


@dataclass(frozen=True)
class Gauge:
    job: Callable[[], object]
    ref_s: float  # about the job's time on an idle 2.1 GHz Xeon core

    def read(self) -> float:
        """Seconds of the job, the fastest of ``READS`` runs."""
        best = math.inf
        for _ in range(READS):
            start = time.perf_counter()
            self.job()
            best = min(best, time.perf_counter() - start)
        return best

    def factor(self, before: float, after: float) -> float:
        """Scale for work timed between two readings."""
        return self.ref_s / (0.5 * (before + after))


class _Member:
    __slots__ = ("p", "q")

    def __init__(self, p: float, q: float) -> None:
        self.p = p
        self.q = q

    def __call__(self, t: float) -> float:
        return t ** self.p * math.log(1.718281828459045 + t) ** self.q


_MEMBER = _Member(2.0, 8.0)
# Fixed (value, mass) pairs on a low-discrepancy sequence.
_ATOMS = [(0.5 + (k * 0.6180339887498949) % 1.0, (k * 0.4142135623730950) % 1.0)
          for k in range(10_000)]


def _kernel() -> float:
    total = 0.0
    for value, mass in _ATOMS:
        total += mass * _MEMBER(value)
    return total


IN_PROCESS = Gauge(_kernel, 2.5e-3)


def processes(env: dict) -> Gauge:
    return Gauge(lambda: subprocess.run([sys.executable, "-S", "-c", "pass"], env=env,
                                        check=True, stdin=subprocess.DEVNULL), 8e-3)
