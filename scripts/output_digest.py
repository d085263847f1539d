#!/usr/bin/env python3
"""Digest of the library's outputs: one ``group count sha256`` line per group.

Groups: the ``classify`` reports of the catalog, of one family without an
array form and of ``sinpiecewise`` slowed 64-fold (``cases.user_power`` and
``cases.slowed_sinpiecewise``, whose probes scan from q = 2^17 on, and
whose open ones read their parities from there), on an infinite and a
finite space; both growth-check forms on ``cases.GROWTH_PAIRS``; Luxemburg norms over the catalog at q in
{1, 4, 64, 4096} of seeded 1-8-atom functions, of a seeded 40-atom one (the
modular's array pass) and of inputs whose terms leave the double range (its
overflow rule), split into ``norms`` (the norm, its modular and the bracket)
and ``norm_steps`` (the modular evaluations each solve took); the stdout of
the ``norm``, ``classify``, ``growth`` and ``sweep`` commands; and ``read``,
what ``simple_function_from_json`` makes of seeded documents of 1 to 10k
atoms and of one document per input fault (the canonical atoms, or the
exception); ``verdicts``, the ``classify`` reports again with every
probe's evidence emptied; and ``answers``, only the ``(verdict, delta,
alpha, beta)`` of each ``classify`` call.  Each group hashes the ``repr`` of
its outputs in a fixed order, so two source trees give the same results
exactly when they print the same lines.  A change to the root finder that
keeps every answer differs in ``norm_steps`` alone.  A change to what
``classify`` reads may move the probe estimates of ``classify`` and
``verdicts``; it keeps every answer when ``answers`` is unchanged:

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

from cases import GROWTH_PAIRS, slowed_sinpiecewise, user_power, without_evidence
import orlicz
from orlicz.cli import main as cli_main

SPECS = ("power", "logbump", "logbump:p=2", "iterlog", "iterlog:N=2", "iterlog:N=3",
         "addie", "addie:N=2", "addie:N=3", "sinpiecewise", "powerlog_e", "identity")
MASSES = (math.inf, 2.0)
NORM_QS = (1.0, 4.0, 64.0, 4096.0)
NORM_FUNCTIONS = 4  # seeded 1-8-atom functions per (family, q)
BULK_ATOMS = 40  # atoms of one more seeded function, above the array cut-off
# Terms beyond the double range, as in tests/test_luxemburg.py: overflowing
# terms of subnormal mass (1 and 40 atoms), one decided by a normal mass, and
# masses whose terms overflow in sum.
OVERFLOW_ATOMS = (((1.0, 1e-310),), tuple((1.0 + i, 1e-310) for i in range(40)),
                  ((3.0, 4e-320), (1.0, 1e-300)), ((2.0, 1e308), (1.0, 1e308)))
READ_SIZES = (1, 2, 8, 100, 10_000)  # atoms per valid read document
SEED = 20221018


def _outcome(call):
    """``repr`` of the result, or the exception's type and message."""
    try:
        return repr(call())
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _classify_calls():
    families = [orlicz.make_family(spec) for spec in SPECS]
    families += [user_power(), slowed_sinpiecewise(64)]
    return [lambda family=family, m=m: orlicz.classify(family, orlicz.MeasureSpace(m))
            for family in families for m in MASSES]


def classify_reports():
    return [_outcome(call) for call in _classify_calls()]


def verdicts():
    return [_outcome(lambda: without_evidence(call())) for call in _classify_calls()]


def answers():
    return [_outcome(lambda: call()[:4]) for call in _classify_calls()]


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

    def seeded(n):
        return tuple((rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
                     for _ in range(n))
    for spec in SPECS:
        family = orlicz.make_family(spec)
        for q in NORM_QS:
            psi = family.make(q)
            small = [seeded(rng.randint(1, 8)) for _ in range(NORM_FUNCTIONS)]
            for atoms in (*small, seeded(BULK_ATOMS), *OVERFLOW_ATOMS):
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


def _read_documents():
    """Seeded valid documents, then one document per fault, each fault in
    atom #3 of five or in the top level."""
    def with_atom_3(entry):
        atoms = [{"value": float(i + 1), "mass": 1.0} for i in range(5)]
        atoms[3] = entry
        return {"total_mass": "inf", "atoms": atoms}

    rng = random.Random(SEED)
    docs = [{"total_mass": "inf",
             "atoms": [{"value": rng.lognormvariate(0.0, 1.0),
                        "mass": rng.lognormvariate(0.0, 1.0)} for _ in range(n)]}
            for n in READ_SIZES]
    docs.append({"total_mass": 1e308, "atoms": [  # ints, merges, zeros, subnormals
        {"value": 2, "mass": 1}, {"value": 2.0, "mass": 0.5}, {"value": 0, "mass": 3},
        {"value": -0.0, "mass": 1.0}, {"value": 5e-324, "mass": 1e307},
        {"value": 1e308, "mass": 5e-324}]})
    docs.append({"total_mass": "inf", "atoms": [  # masses that overflow only in sum
        {"value": 2.0, "mass": 1e308}, {"value": 1.0, "mass": 1e308}]})
    docs += [[], {"total_mass": "inf", "atoms": [], "x": 1}, {"total_mass": "inf"},
             {"total_mass": "inf", "atoms": {}}]
    docs += [{"total_mass": tm, "atoms": [{"value": 1.0, "mass": 1.0}]}
             for tm in ("huge", True, None, -1, 0, math.nan, 0.5, 10**400, 1e400, math.inf)]
    docs += [with_atom_3(entry) for entry in ([9.0, 1.0], None, {"value": 9.0},
                                              {"value": 9.0, "mass": 1.0, "x": 1})]
    docs += [with_atom_3({"value": 9.0, "mass": 1.0} | {key: bad}) for key in ("value", "mass")
             for bad in (True, None, "1", [1.0], math.nan, math.inf, -1.0, 0, 10**400)]
    docs.append({"total_mass": "inf", "atoms": [  # one value's masses overflow in sum
        {"value": 1.0, "mass": 1e308}, {"value": 1.0, "mass": 1e308}]})
    return docs


def read_outcomes():
    return [_outcome(lambda: orlicz.simple_function_from_json(doc).atoms)
            for doc in _read_documents()]


GROUPS = (("classify", classify_reports), ("growth", growth_reports),
          ("norms", norms), ("norm_steps", norm_steps), ("cli", cli_stdout),
          ("read", read_outcomes), ("verdicts", verdicts), ("answers", answers))


def main() -> int:
    for name, outputs in GROUPS:
        items = outputs()
        digest = hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()
        print(f"{name} {len(items)} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
