"""The four seeded workloads: their inputs, their set-up and their operations.

Every workload is a fixed list of operations, run closed-loop by a single
caller (each operation starts when the previous one returns).  The seed only
changes the numbers fed to the program (atom values and masses, transfer
grid points, CLI input files); the list of operations -- which function is
called on which family, at which q, with how many atoms -- is the same for
every seed, so per-pass counts can be compared across seeds.

``make_inputs`` runs before any timing and returns plain JSON data.
``write_files`` turns the parts that the program reads from disk into JSON
files.  ``setup`` is what a user pays before the first operation: importing
``orlicz``, building the workload's families and reading its input files.
It runs both in the benchmark process and in fresh interpreters (see
``child.py``), which is how ``setup_s`` is measured.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("norm-bulk", "norm-small", "diagnostics", "cli")

# norm-bulk: one 10k-atom function per member; the per-atom Psi calls inside
# ``modular`` do nearly all the work.
BULK_MEMBERS = (("power", 4.0), ("logbump:p=2", 64.0), ("addie:N=2", 16.0),
                ("sinpiecewise", 33.0))
BULK_ATOMS = 10_000

# norm-small: 1-8 atoms over the catalog and the 13-point q = 2^0..2^12
# schedule that ``orlicz sweep`` uses by default.
SMALL_SPECS = ("power", "logbump", "logbump:p=2", "iterlog", "iterlog:N=2",
               "addie", "addie:N=2", "sinpiecewise", "powerlog_e", "identity")
SMALL_QS = tuple(2.0 ** j for j in range(13))
SMALL_OPS = 2600
SMALL_WIDE_EVERY = 9  # one input in nine draws exponents from 10^-300..10^300
# Fixed range probes run on every spec at q = 4: a single atom of tiny mass,
# a single atom of huge mass, and two atoms of mass 1e308 each.
SMALL_PROBE_MASSES = ((1e-300,), (1e300,), (1e308, 1e308))

# diagnostics: the nine catalog specs of the test suite plus identity and the
# N=3 members that the README claims are delta-admissible.
CLASSIFY_SPECS = ("power", "logbump", "logbump:p=2", "iterlog", "iterlog:N=2",
                  "addie", "addie:N=2", "sinpiecewise", "powerlog_e",
                  "identity", "iterlog:N=3", "addie:N=3")
CLASSIFY_MASSES = (math.inf, 2.0)
# (family, comparison family, comparison q, k): the pairs surveyed by
# scripts/run_growth_checks.py.
GROWTH_PAIRS = (("power", "power", 1.5, 5.0), ("power", "power", 2.0, 5.0),
                ("power", "power", 3.0, 5.0), ("logbump", "power", 3.0, 5.0),
                ("logbump", "logbump", 1.0, 10.0),
                ("logbump:p=2", "logbump:p=2", 1.0, 10.0))
TRANSFER_SETS = ((1.0, 1.0, 3.0), (2.0, 1.0, 8.0))  # (p, q0, q)
TRANSFER_POINTS = 50

# cli: one process per operation, cycling through the four subcommands.
CLI_NORM = ("logbump:p=2", 16.0)
CLI_CLASSIFY = ("power", "addie:N=2")  # a cheap and an expensive family
CLI_GROWTH = ("logbump", "power", 3.0, 10.0)
CLI_SWEEP = "logbump:p=2"
CLI_ATOMS = 2


def _lognormal_atoms(rng: random.Random, n: int) -> list[list[float]]:
    return [[rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0)]
            for _ in range(n)]


def _wide_atoms(rng: random.Random, n: int) -> list[list[float]]:
    return [[10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)]
            for _ in range(n)]


def make_inputs(workload: str, seed: int) -> dict:
    """Generate every input of ``workload`` from ``seed``, as JSON data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "norm-bulk":
        return {"functions": [_lognormal_atoms(rng, BULK_ATOMS) for _ in BULK_MEMBERS]}
    if workload == "norm-small":
        ops = []
        for i in range(SMALL_OPS):
            n_atoms = 1 + (i // 130) % 8
            wide = i % SMALL_WIDE_EVERY == 0
            atoms = (_wide_atoms if wide else _lognormal_atoms)(rng, n_atoms)
            ops.append({"spec": SMALL_SPECS[i % len(SMALL_SPECS)],
                        "q": SMALL_QS[(i // len(SMALL_SPECS)) % len(SMALL_QS)],
                        "atoms": atoms})
        for masses in SMALL_PROBE_MASSES:
            for spec in SMALL_SPECS:
                ops.append({"spec": spec, "q": 4.0,
                            "atoms": [[rng.lognormvariate(0.0, 1.0), m] for m in masses]})
        return {"ops": ops}
    if workload == "diagnostics":
        return {"transfer_ts": [sorted(rng.uniform(0.01, 10.0)
                                       for _ in range(TRANSFER_POINTS))
                                for _ in TRANSFER_SETS]}
    if workload == "cli":
        return {"atoms": _lognormal_atoms(rng, CLI_ATOMS)}
    raise ValueError(f"unknown workload {workload!r}")


def _function_json(atoms) -> dict:
    return {"total_mass": "inf",
            "atoms": [{"value": v, "mass": m} for v, m in atoms]}


def write_files(workload: str, inputs: dict, workdir: str) -> None:
    """Write the inputs that the program reads from disk into ``workdir``."""
    docs = {}
    if workload == "norm-bulk":
        docs = {f"bulk{i}.json": _function_json(atoms)
                for i, atoms in enumerate(inputs["functions"])}
    elif workload == "cli":
        docs = {"cli.json": _function_json(inputs["atoms"])}
    for name, doc in docs.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _family_specs(workload: str) -> tuple[str, ...]:
    if workload == "norm-bulk":
        return tuple(spec for spec, _ in BULK_MEMBERS)
    if workload == "norm-small":
        return SMALL_SPECS
    if workload == "diagnostics":
        return tuple(dict.fromkeys(
            CLASSIFY_SPECS + tuple(s for pair in GROWTH_PAIRS for s in pair[:2])))
    return tuple(dict.fromkeys((CLI_NORM[0], *CLI_CLASSIFY, *CLI_GROWTH[:2], CLI_SWEEP)))


@dataclass
class State:
    """What set-up leaves ready for the operations."""

    families: dict
    functions: list


def setup(workload: str, workdir: str) -> State:
    """Import the program, build the workload's families, read its files."""
    import orlicz
    if workload == "cli":
        import orlicz.cli  # noqa: F401  (the CLI module is part of its set-up)
    families = {spec: orlicz.make_family(spec) for spec in _family_specs(workload)}
    names = {"norm-bulk": [f"bulk{i}.json" for i in range(len(BULK_MEMBERS))],
             "cli": ["cli.json"]}.get(workload, [])
    functions = [orlicz.read_simple_function(os.path.join(workdir, name))
                 for name in names]
    return State(families, functions)


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` groups the oracle checks, ``args`` are its inputs."""

    kind: str
    args: tuple
    call: Callable[[], object]


def operations(workload: str, inputs: dict, state: State, workdir: str,
               env: dict) -> list[Op]:
    """The fixed list of operations of one pass over ``workload``."""
    import orlicz
    fam = state.families
    if workload == "norm-bulk":
        return [Op("norm", (spec, q, tuple(map(tuple, atoms))),
                   lambda spec=spec, q=q, f=f: orlicz.luxemburg_norm(fam[spec].make(q), f).norm)
                for (spec, q), f, atoms in zip(BULK_MEMBERS, state.functions,
                                               inputs["functions"])]
    if workload == "norm-small":
        space = orlicz.MeasureSpace(math.inf)

        def solve(spec, q, atoms):
            f = orlicz.SimpleFunction(atoms, space)
            return orlicz.luxemburg_norm(fam[spec].make(q), f).norm
        ops = []
        for op in inputs["ops"]:
            atoms = tuple(map(tuple, op["atoms"]))
            ops.append(Op("norm", (op["spec"], op["q"], atoms),
                          lambda s=op["spec"], q=op["q"], a=atoms: solve(s, q, a)))
        return ops
    if workload == "diagnostics":
        ops = []
        for spec in CLASSIFY_SPECS:
            for mass in CLASSIFY_MASSES:
                def classify(spec=spec, mass=mass):
                    r = orlicz.classify(fam[spec], orlicz.MeasureSpace(mass))
                    return (r.verdict, r.delta, r.alpha, r.beta)
                ops.append(Op("classify", (spec, mass), classify))
        for pair in GROWTH_PAIRS:
            for form in ("growth_check", "growth_check_inverse_form"):
                def growth(pair=pair, form=form):
                    spec, phi_spec, phi_q, k = pair
                    r = getattr(orlicz, form)(fam[spec], fam[phi_spec].make(phi_q), k)
                    return (r.q_threshold, r.per_q, r.witness[0] if r.witness else None)
                ops.append(Op("growth", (form, *pair), growth))
        for (p, q0, q), ts in zip(TRANSFER_SETS, inputs["transfer_ts"]):
            ops.append(Op("transfer", (p, q0, q, tuple(ts)),
                          lambda p=p, q0=q0, q=q, ts=ts:
                          tuple(orlicz.logbump_transfer(p, q0, q, t) for t in ts)))
        return ops
    if workload == "cli":
        return [Op("cli", tuple(argv), lambda argv=argv: run_cli(argv, env))
                for argv in cli_argvs(workdir)]
    raise ValueError(f"unknown workload {workload!r}")


def cli_argvs(workdir: str) -> list[list[str]]:
    """The orlicz command lines of one pass over the cli workload."""
    path = os.path.join(workdir, "cli.json")
    family, phi, phi_q, k = CLI_GROWTH
    return [["norm", "--family", CLI_NORM[0], "--q", repr(CLI_NORM[1]), "--input", path],
            *(["classify", "--family", spec] for spec in CLI_CLASSIFY),
            ["growth", "--family", family, "--phi", phi, "--q", repr(phi_q), "--k", repr(k)],
            ["sweep", "--family", CLI_SWEEP, "--input", path]]


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    maxrss_kb: int


def run_cli(argv: list[str], env: dict, launcher: list[str] | None = None) -> CliResult:
    """Run one ``orlicz`` process to completion and collect its peak RSS."""
    cmd = [sys.executable, *(launcher or ["-m", "orlicz.cli"]), *argv]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out, usage.ru_maxrss)


def child_env(src: str) -> dict:
    """Environment of every child: the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env
