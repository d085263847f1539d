#!/usr/bin/env python3
"""Import cost of the package in fresh interpreters, compiled from source.

For ``import orlicz`` and ``import orlicz.cli`` in turn, start ``--runs``
fresh interpreters and print the median wall time of the import, timed
inside each child.  Then print the modules outside ``orlicz`` that the
import adds to a fresh interpreter, so that a new dependency of the import
(such as ``dataclasses``, ``json`` or ``numpy``) shows.  Then start as many
interpreters under ``-X importtime`` and print the median self time of
every ``orlicz`` module that the import loaded.

Every child runs with ``PYTHONDONTWRITEBYTECODE=1`` on a copy of the package
without ``__pycache__``, so each one compiles the package from source, as a
fresh checkout does; the standard library keeps its cached bytecode.

    PYTHONPATH=src python scripts/import_cost.py --runs 21
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

STATEMENTS = ("import orlicz", "import orlicz.cli")
TIMED = "import time; t = time.perf_counter(); {}; print(time.perf_counter() - t)"
ADDED = ("import sys; before = set(sys.modules); {}; print(*sorted("
         "m for m in sys.modules.keys() - before if m.partition('.')[0] != 'orlicz'))")


def _child(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          text=True, check=True)


def _self_times(stderr: str) -> dict[str, int]:
    """``module -> self us`` of the ``orlicz`` modules in ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[2].strip().split(".")[0] == "orlicz":
            out[fields[2].strip()] = int(fields[0])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=21, help="fresh interpreters per figure")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    spec = importlib.util.find_spec("orlicz")
    if spec is None or not spec.submodule_search_locations:
        print("error: orlicz not found; run with PYTHONPATH=src", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(spec.submodule_search_locations[0], os.path.join(tmp, "orlicz"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}
        for statement in STATEMENTS:
            seconds = [float(_child(["-c", TIMED.format(statement)], env).stdout)
                       for _ in range(args.runs)]
            print(f"{statement}: median {statistics.median(seconds) * 1e3:.2f} ms "
                  f"of {args.runs} runs")
            added = _child(["-c", ADDED.format(statement)], env).stdout.split()
            print(f"  other modules it loads: {', '.join(added) or 'none'}")
            runs = [_self_times(_child(["-X", "importtime", "-c", statement], env).stderr)
                    for _ in range(args.runs)]
            for module in runs[0]:
                self_us = statistics.median(run[module] for run in runs)
                print(f"  {module} self {self_us / 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
