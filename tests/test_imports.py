"""Each module is imported where it is first needed.  ``import orlicz``
loads none of ``dataclasses``, ``inspect``, ``json`` and numpy.  Building
the catalog and the scalar paths (small norms, scalar inverses, indicator
norms, ``orlicz norm``) load none of numpy, ``dataclasses``, ``inspect``
and the limit diagnostics of ``orlicz.admissibility``, so a fresh
interpreter checks that they stay unloaded; the first grid then loads numpy
and gives the values this process computes, and the first ``classify``
loads the diagnostics.

The diagnostics' names are exported lazily (PEP 562): in a fresh interpreter
they resolve, star-import and list like eager ones, and a patch on
``orlicz.classify`` reaches the CLI."""

import json
import math
import os
import subprocess
import sys

import orlicz
from orlicz import (MeasureSpace, SimpleFunction, cli, indicator_norm, luxemburg_norm,
                    make_family)

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
import sys
import orlicz
after_import = sorted(m for m in ("dataclasses", "inspect", "json", "numpy")
                      if m in sys.modules)
import contextlib, io, json
import orlicz.cli
sys.path.insert(0, {os.path.dirname(__file__)!r})
import test_imports as t
specs = json.loads(sys.argv[2])
scalar = t._scalar_results(specs)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = orlicz.cli.main(["norm", "--family", "power", "--q", "3",
                            "--input", sys.argv[1]])
loaded = sorted(m for m in ("numpy", "statistics", "pytest", "orlicz.admissibility", "csv",
                            "dataclasses", "inspect") if m in sys.modules)
grids = t._grids(specs)
numpy_after_grid = "numpy" in sys.modules
orlicz.classify(orlicz.make_family("power"), orlicz.MeasureSpace(float("inf")))
print(json.dumps({{"after_import": after_import, "scalar": scalar, "cli": [code, out.getvalue()],
                  "loaded": loaded, "numpy_after_grid": numpy_after_grid, "grids": grids,
                  "admissibility_after_classify": "orlicz.admissibility" in sys.modules}}))
"""


def _run_child(code, *args):
    src = os.path.dirname(os.path.dirname(orlicz.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scalar_paths_leave_numpy_unloaded(tmp_path):
    from conftest import CATALOG_SPECS
    path = tmp_path / "ind8.json"
    path.write_text(json.dumps({"total_mass": "inf",
                                "atoms": [{"value": 1.0, "mass": 8.0}]}))
    child = _run_child(CHILD, str(path), json.dumps(CATALOG_SPECS))
    assert child["after_import"] == []
    assert child["loaded"] == []
    assert child["cli"] == [0, "2.00000000000\n"]
    assert child["scalar"] == _scalar_results(CATALOG_SPECS)
    assert child["numpy_after_grid"]
    assert child["grids"] == _grids(CATALOG_SPECS)
    assert child["admissibility_after_classify"]


# Each step reads the namespace in the order a user might, starting cold.
NAMESPACE_CHILD = """
import json, sys
import orlicz
lazy = lambda: "orlicz.admissibility" in sys.modules
out = {"dir": sorted(set(orlicz.__all__) - set(dir(orlicz)))}
try:
    orlicz.NoSuchName
except AttributeError as exc:
    out["unknown"] = str(exc)
out["has_config"] = hasattr(orlicz, "ClassifierConfig")
out["loaded_before_star"] = lazy()
names = {}
exec("from orlicz import *", names)
out["star_missing"] = sorted(set(orlicz.__all__) - set(names))
out["loaded_after_star"] = lazy()
out["not_same"] = sorted(n for n in orlicz.__all__ if n != "__version__"
                         and names[n] is not getattr(orlicz, n))
print(json.dumps(out))
"""


def test_lazy_namespace_in_fresh_interpreter():
    child = _run_child(NAMESPACE_CHILD)
    assert child == {"dir": [], "unknown": "module 'orlicz' has no attribute 'NoSuchName'",
                     "has_config": False, "loaded_before_star": False,
                     "star_missing": [], "loaded_after_star": True, "not_same": []}


DIAGNOSTICS = ("AdmissibilityReport", "FixedPointReport", "LimitEstimate", "MonotonicityReport",
               "classify", "classify_sequence", "growth_check", "growth_check_inverse_form",
               "limit_of_inverses", "limit_of_values", "logbump_transfer",
               "tc_fixed_point_check")


def test_exports_resolve_to_the_diagnostics_objects():
    from orlicz import admissibility
    assert all(hasattr(orlicz, name) for name in orlicz.__all__)
    assert set(DIAGNOSTICS) <= set(orlicz.__all__)
    assert [n for n in DIAGNOSTICS if getattr(orlicz, n) is not getattr(admissibility, n)] == []


def test_cli_calls_the_package_diagnostics(monkeypatch, tmp_path, capsys):
    # perfbench's tracer wraps orlicz.classify and orlicz.growth_check: the
    # CLI must find the wrappers, not copies bound when it was imported.
    path = tmp_path / "ind8.json"
    path.write_text(json.dumps({"total_mass": "inf",
                                "atoms": [{"value": 1.0, "mass": 8.0}]}))
    calls = []

    def spy(name):
        real = getattr(orlicz, name)
        return lambda *args: calls.append(name) or real(*args)
    monkeypatch.setattr(orlicz, "classify", spy("classify"))
    monkeypatch.setattr(orlicz, "growth_check", spy("growth_check"))
    assert cli.main(["classify", "--family", "power"]) == 0
    assert cli.main(["sweep", "--family", "power", "--input", str(path),
                     "--q-steps", "2"]) == 0
    assert cli.main(["growth", "--family", "power", "--phi", "power",
                     "--q", "2", "--k", "5"]) == 0
    capsys.readouterr()
    assert calls == ["classify", "classify", "growth_check"]


def test_one_list_of_public_names():
    # Each name is written once: the norm side's in its module's __all__, the
    # diagnostics' in _ADMISSIBILITY, which admissibility.__all__ is built
    # from, so that listing the names does not import them.
    from orlicz import admissibility, luxemburg, measure, young
    modules = (young, measure, luxemburg, admissibility)
    assert set(orlicz.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    assert orlicz._ADMISSIBILITY == set(admissibility.__all__)
