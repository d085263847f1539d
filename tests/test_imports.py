"""numpy is imported where an array is first built.  Importing the package,
building the catalog and the scalar paths (small norms, scalar inverses,
indicator norms, ``orlicz norm``) run without it, so a fresh interpreter
checks that it stays unloaded; the first grid then loads it and gives the
values this process computes."""

import json
import math
import os
import subprocess
import sys

import orlicz
from orlicz import MeasureSpace, SimpleFunction, indicator_norm, luxemburg_norm, make_family

QS = (1.0, 2.5, 64.0)
YS = (1e-300, 0.3, 7.0, 1e300)
TS = (0.0, 0.25, 1.0, 3.0)


def _atoms(n):
    return tuple((1.5 ** k, 0.5 + 0.25 * k) for k in range(n))


def _scalar_results(specs):
    """Norms of 1-8-atom functions, scalar inverses and indicator norms over
    the catalog: the work that must not load numpy."""
    space = MeasureSpace(math.inf)
    out = []
    for spec in specs:
        family = make_family(spec)
        for q in QS:
            psi = family.make(q)
            out += [luxemburg_norm(psi, SimpleFunction(_atoms(n), space)).norm
                    for n in range(1, 9)]
            out += [psi.inverse(y) for y in YS]
            out.append(indicator_norm(psi, 8.0))
    return out


def _grids(specs):
    return [make_family(spec).evaluate_grid(TS, QS).tolist() for spec in specs]


# The child imports this module without pytest, which conftest would bring.
CHILD = f"""
import contextlib, io, json, sys
import orlicz, orlicz.cli
sys.path.insert(0, {os.path.dirname(__file__)!r})
import test_imports as t
specs = json.loads(sys.argv[2])
scalar = t._scalar_results(specs)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = orlicz.cli.main(["norm", "--family", "power", "--q", "3",
                            "--input", sys.argv[1]])
loaded = sorted(m for m in ("numpy", "statistics", "pytest") if m in sys.modules)
grids = t._grids(specs)
print(json.dumps({{"scalar": scalar, "cli": [code, out.getvalue()],
                  "loaded": loaded, "numpy_after_grid": "numpy" in sys.modules,
                  "grids": grids}}))
"""


def test_scalar_paths_leave_numpy_unloaded(tmp_path):
    from conftest import CATALOG_SPECS
    path = tmp_path / "ind8.json"
    path.write_text(json.dumps({"total_mass": "inf",
                                "atoms": [{"value": 1.0, "mass": 8.0}]}))
    src = os.path.dirname(os.path.dirname(orlicz.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path), json.dumps(CATALOG_SPECS)],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["loaded"] == []
    assert child["cli"] == [0, "2.00000000000\n"]
    assert child["scalar"] == _scalar_results(CATALOG_SPECS)
    assert child["numpy_after_grid"]
    assert child["grids"] == _grids(CATALOG_SPECS)
