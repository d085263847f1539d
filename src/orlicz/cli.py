"""Command-line front end: norm evaluation, q-sweeps to CSV, admissibility
verdicts and growth-ratio checks.

Output is deterministic: the same invocation produces byte-identical stdout
and CSV.  Exit codes: 0 success, 2 bad input (family spec, flags, JSON, an
``--out`` path that cannot be written), 3 numeric failure (bracketing or
overflow in the solvers).

Each subcommand imports what it runs when it runs: ``norm`` loads neither
the limit diagnostics of ``orlicz.admissibility`` nor numpy.  The
diagnostics are looked up through the ``orlicz`` package, so a patch on
``orlicz.classify`` or ``orlicz.growth_check`` reaches the CLI.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .luxemburg import luxemburg_norm
from .measure import MeasureSpace, ess_sup, read_simple_function
from .young import make_family

__all__ = ["main"]


def _fmt_sig(x: float) -> str:
    """12 significant digits, positional; exact zero collapses to ``0``.

    For finite ``x`` the output of numpy's ``format_float_positional(x,
    precision=12, unique=False, fractional=False, trim="k")``: the exact
    decimal digits of ``x``, rounded half-even to 12 if there are more; a
    round-up drops the zeros its carry leaves, a truncation keeps them.  The
    fraction is padded with zeros to ``12 - max(whole digits, 1)`` places and
    the point stays when it has none.
    """
    if x == 0.0:
        return "0"
    from decimal import ROUND_HALF_EVEN, Context, Decimal
    exact, context = Decimal(x), Context(prec=12, rounding=ROUND_HALF_EVEN)
    rounded = context.plus(exact)
    if rounded.copy_abs() > exact.copy_abs():  # rounded up: drop the carry's zeros
        rounded = context.normalize(rounded)
    whole, _, frac = format(rounded, "f").partition(".")
    return f"{whole}.{frac.ljust(12 - len(whole.lstrip('-')), '0')}"


def _parse_mass(text: str) -> float:
    if text.strip().lower().lstrip("+") in ("inf", "infinity"):
        return math.inf
    try:
        mass = float(text)
    except ValueError:
        raise ValueError(f"total mass must be a positive number or 'inf', got {text!r}")
    if mass == math.inf:  # a number such as 1e400, not a request for an infinite space
        raise ValueError(f"total mass {text!r} is beyond the double range")
    return mass


# The most q one sweep takes.  The schedule, every norm and every CSV row
# are built before the first row is written, so the count is checked first.
_MAX_SWEEP_POINTS = 100_000


def _phase_locked_schedule(k_min: int, k_max: int) -> tuple[float, ...]:
    """``pi/2 + k*pi`` for ``k = k_min..k_max``: ``sin q`` is frozen at ``-1``
    (odd ``k``) or ``+1`` (even ``k``); one parity is every other entry."""
    return tuple(math.pi / 2.0 + k * math.pi for k in range(k_min, k_max + 1))


def _sweep_qs(args: argparse.Namespace) -> list[float]:
    if args.phase_locked:
        if not (args.q_min.is_integer() and args.q_max.is_integer()
                and 1 <= args.q_min <= args.q_max):
            raise ValueError(
                f"phase-locked sweep needs 1 <= q-min <= q-max as integer k bounds, "
                f"got {args.q_min!r}..{args.q_max!r}")
        count = int(args.q_max) - int(args.q_min) + 1
    else:
        if not 0 < args.q_min <= args.q_max < math.inf:
            raise ValueError(
                f"need 0 < q-min <= q-max < inf, got {args.q_min!r}..{args.q_max!r}")
        if args.q_steps < 1:
            raise ValueError(f"q-steps must be >= 1, got {args.q_steps!r}")
        count = args.q_steps
    if count > _MAX_SWEEP_POINTS:
        raise ValueError(f"a sweep takes at most {_MAX_SWEEP_POINTS} q, asked for {count}")
    if args.phase_locked:
        from .admissibility import _PHASE_I_MAX
        if args.q_max > 2 ** _PHASE_I_MAX + 1:
            raise ValueError(f"phase-locked sweep needs q-max <= 2^{_PHASE_I_MAX} + 1, past "
                             f"which sin q drifts from +-1, got {args.q_max!r}")
        return list(_phase_locked_schedule(int(args.q_min), int(args.q_max)))
    import numpy as np
    qs = []
    for q in np.geomspace(args.q_min, args.q_max, args.q_steps):
        q = float(q)
        snapped = round(q)
        if snapped > 0 and abs(q - snapped) <= 1e-9 * q:
            q = float(snapped)  # keep doubling schedules exact
        qs.append(q)
    return sorted(set(qs))


def _cmd_norm(args: argparse.Namespace) -> int:
    family = make_family(args.family)
    f = read_simple_function(args.input)
    psi = family.make(args.q)
    result = luxemburg_norm(psi, f)
    print(_fmt_sig(result.norm))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import classify
    family = make_family(args.family)
    f = read_simple_function(args.input)
    qs = _sweep_qs(args)

    report = classify(family, f.space)
    target = None
    if report.verdict == "delta_admissible":
        target = ess_sup(f) / report.delta

    rows = []
    for q in qs:
        norm = luxemburg_norm(family.make(q), f).norm
        if target is None:
            rows.append((repr(q), repr(norm), "", ""))
        else:
            rows.append((repr(q), repr(norm), repr(target), repr(abs(norm - target))))

    if args.out is None:
        _write_csv(sys.stdout, rows)
        return 0
    try:
        with open(args.out, "w", newline="") as handle:
            _write_csv(handle, rows)
    except OSError as exc:  # a directory, a missing folder, a full disk
        raise ValueError(f"cannot write {args.out!r}: {exc}") from exc
    return 0


def _write_csv(handle, rows: Sequence[tuple[str, str, str, str]]) -> None:
    import csv
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(("q", "norm", "target", "abs_error"))
    writer.writerows(rows)


def _cmd_classify(args: argparse.Namespace) -> int:
    from . import classify
    family = make_family(args.family)
    space = MeasureSpace(_parse_mass(args.total_mass))
    report = classify(family, space)
    if report.verdict == "delta_admissible":
        print(f"delta-admissible delta={report.delta:.3f}")
    elif report.verdict == "alpha_beta_admissible":
        print(f"alpha-beta-admissible alpha={report.alpha:.3f} beta={report.beta:.3f}")
    elif report.verdict == "inadmissible_divergent":
        print("inadmissible: divergent")
    elif report.verdict == "inadmissible_vanishing":
        print("inadmissible: vanishing")
    else:
        print("undetermined")
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    from . import growth_check
    family = make_family(args.family)
    phi = make_family(args.phi).make(args.q)
    report = growth_check(family, phi, args.k)
    if report.q_threshold is not None:
        print(f"non-decreasing from q={report.q_threshold:g} on (0, {args.k:g}]")
    else:
        q, t1, t2, r1, r2 = report.witness
        print(f"violation at q={q:g}: ratio({t1!r})={r1!r} > ratio({t2!r})={r2!r}")
    for q, ok in report.per_q:
        print(f"q={q:g}: {'ok' if ok else 'violation'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description="Luxemburg norms of simple functions and admissibility "
                    "diagnostics for one-parameter Young families.")
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("norm", help="Luxemburg norm of a simple function")
    norm.add_argument("--family", required=True, help="family spec, e.g. logbump:p=2")
    norm.add_argument("--q", type=float, required=True, help="family parameter")
    norm.add_argument("--input", required=True, help="simple-function JSON path")
    norm.set_defaults(func=_cmd_norm)

    sweep = sub.add_parser("sweep", help="norms along a q-schedule as CSV")
    sweep.add_argument("--family", required=True)
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--q-min", type=float, default=1.0)
    sweep.add_argument("--q-max", type=float, default=4096.0)
    sweep.add_argument("--q-steps", type=int, default=13,
                       help=f"geometric schedule length from q-min to q-max, "
                            f"at most {_MAX_SWEEP_POINTS}")
    sweep.add_argument("--phase-locked", action="store_true",
                       help=f"use q = pi/2 + k*pi with integer k from q-min to q-max, "
                            f"at most {_MAX_SWEEP_POINTS} k")
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    cls = sub.add_parser("classify", help="admissibility verdict for a family")
    cls.add_argument("--family", required=True)
    cls.add_argument("--total-mass", default="inf",
                     help="measure-space context, a positive number or 'inf'")
    cls.set_defaults(func=_cmd_classify)

    growth = sub.add_parser("growth", help="growth-ratio monotonicity check")
    growth.add_argument("--family", required=True)
    growth.add_argument("--phi", required=True,
                        help="comparison family spec; its member at --q is used")
    growth.add_argument("--q", type=float, default=1.0,
                        help="parameter selecting the comparison member")
    growth.add_argument("--k", type=float, required=True,
                        help="right endpoint of the scan interval")
    growth.set_defaults(func=_cmd_growth)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
