#!/usr/bin/env python3
"""Digest of the library's outputs: one ``group count sha256`` line per group.

Groups: the ``classify`` reports of the catalog and of one family without an
array form, on an infinite and a finite space; both growth-check forms on the
surveyed comparison pairs; Luxemburg norms of seeded 1-8-atom functions over
the catalog at q in {1, 4, 64, 4096}, split into ``norms`` (the norm, its
modular and the bracket) and ``norm_steps`` (the modular evaluations each
solve took); and the stdout of the ``norm``, ``classify``, ``growth`` and
``sweep`` commands.  Each group hashes the ``repr`` of its outputs in a fixed
order, so two source trees give the same results exactly when they print
the same lines, and a change to the root finder that keeps every answer
differs in ``norm_steps`` alone:

    PYTHONPATH=src python scripts/output_digest.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile

import orlicz
from orlicz.cli import main as cli_main

SPECS = ("power", "logbump", "logbump:p=2", "iterlog", "iterlog:N=2", "iterlog:N=3",
         "addie", "addie:N=2", "addie:N=3", "sinpiecewise", "powerlog_e", "identity")
MASSES = (math.inf, 2.0)
# (family, comparison family, comparison q, k), as in run_growth_checks.py
GROWTH_PAIRS = (("power", "power", 1.5, 5.0), ("power", "power", 2.0, 5.0),
                ("power", "power", 3.0, 5.0), ("logbump", "power", 3.0, 5.0),
                ("logbump", "logbump", 1.0, 10.0),
                ("logbump:p=2", "logbump:p=2", 1.0, 10.0))
NORM_QS = (1.0, 4.0, 64.0, 4096.0)
NORM_FUNCTIONS = 4  # seeded functions per (family, q)
SEED = 20221018


def _outcome(call):
    """``repr`` of the result, or the exception's type and message."""
    try:
        return repr(call())
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def classify_reports():
    families = [orlicz.make_family(spec) for spec in SPECS]
    families.append(orlicz.YoungFamily("user-power", lambda t, q: t ** q, {}, q_min=1.0))
    return [_outcome(lambda: orlicz.classify(family, orlicz.MeasureSpace(m)))
            for family in families for m in MASSES]


def growth_reports():
    out = []
    for spec, phi_spec, phi_q, k in GROWTH_PAIRS:
        family, phi = orlicz.make_family(spec), orlicz.make_family(phi_spec).make(phi_q)
        for form in (orlicz.growth_check, orlicz.growth_check_inverse_form):
            out.append(_outcome(lambda: form(family, phi, k)))
    return out


def norm_solves():
    """The ``NormResult`` of each seeded solve, or the exception's text."""
    rng = random.Random(SEED)
    space = orlicz.MeasureSpace(math.inf)
    out = []
    for spec in SPECS:
        family = orlicz.make_family(spec)
        for q in NORM_QS:
            psi = family.make(q)
            for _ in range(NORM_FUNCTIONS):
                atoms = tuple((rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
                              for _ in range(rng.randint(1, 8)))
                f = orlicz.SimpleFunction(atoms, space)
                try:
                    out.append(orlicz.luxemburg_norm(psi, f))
                except (ValueError, ArithmeticError) as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
    return out


def norms():
    return [r if isinstance(r, str) else repr((r.norm, r.modular_at_norm, r.bracket))
            for r in norm_solves()]


def norm_steps():
    return [r if isinstance(r, str) else repr(r.iterations) for r in norm_solves()]


def cli_stdout():
    payload = {"total_mass": "inf", "atoms": [{"value": 2.0, "mass": 1.0},
                                              {"value": 1.0, "mass": 3.0}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        argvs = [["norm", "--family", "logbump:p=2", "--q", "16", "--input", path],
                 *(["classify", "--family", spec, "--total-mass", mass]
                   for spec in SPECS for mass in ("inf", "2")),
                 ["growth", "--family", "logbump", "--phi", "power", "--q", "3", "--k", "10"],
                 ["growth", "--family", "power", "--phi", "power", "--q", "3", "--k", "5"],
                 ["sweep", "--family", "logbump:p=2", "--input", path],
                 ["sweep", "--family", "sinpiecewise", "--input", path,
                  "--phase-locked", "--q-min", "33", "--q-max", "40"]]
        out = []
        for argv in argvs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main(argv)
            out.append(repr((argv[:3], code, stdout.getvalue())))
        return out


GROUPS = (("classify", classify_reports), ("growth", growth_reports),
          ("norms", norms), ("norm_steps", norm_steps), ("cli", cli_stdout))


def main() -> int:
    for name, outputs in GROUPS:
        items = outputs()
        digest = hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()
        print(f"{name} {len(items)} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
