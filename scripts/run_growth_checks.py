#!/usr/bin/env python3
"""Growth-ratio threshold survey plus transfer-function diagnostics.

Prints the monotonicity threshold (or violation witness) for each comparison
pair of ``cases.GROWTH_PAIRS``, then the transfer-factor residuals and
fixed-point checks for the log-bump family.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from cases import GROWTH_PAIRS
from orlicz import growth_check, logbump_transfer, make_family, tc_fixed_point_check

TRANSFER_SETS = [(1.0, 1.0, 3.0), (2.0, 1.0, 8.0)]


def pair_name(spec: str, phi_spec: str, phi_q: float) -> str:
    """``logbump(p=1) vs t^3`` for a power comparison member,
    ``logbump(p=2) vs own q0=1`` for any other."""
    family = make_family(spec)
    params = ",".join(f"{key}={value:g}" for key, value in family.params.items())
    phi = f"t^{phi_q:g}" if phi_spec == "power" else f"own q0={phi_q:g}"
    return f"{family.label}{f'({params})' if params else ''} vs {phi}"


def main() -> int:
    for spec, phi_spec, phi_q, k in GROWTH_PAIRS:
        name = pair_name(spec, phi_spec, phi_q)
        report = growth_check(make_family(spec), make_family(phi_spec).make(phi_q), k)
        if report.q_threshold is not None:
            print(f"{name}: non-decreasing from q={report.q_threshold:g}")
        else:
            q, t1, t2, r1, r2 = report.witness
            print(f"{name}: violation at q={q:g} between t={t1:.3e} and t={t2:.3e}")

    for p, q0, q in TRANSFER_SETS:
        worst = 0.0
        for t in np.linspace(0.01, 10.0, 100):
            t = float(t)
            F = logbump_transfer(p, q0, q, t)
            res = abs(F ** p * math.log(math.e - 1.0 + t) ** q0
                      - math.log(math.e - 1.0 + t / F) ** q)
            worst = max(worst, res)
        t1 = 0.3
        c = logbump_transfer(p, q0, q, t1)
        fp = tc_fixed_point_check(p, q0, q, c, t1)
        print(f"transfer p={p:g} q0={q0:g} q={q:g}: "
              f"F(0)={logbump_transfer(p, q0, q, 0.0):.10f} "
              f"worst residual={worst:.3e} "
              f"fixed-point residual={fp.residual:.3e} concave={not fp.predicate_failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
