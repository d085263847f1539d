"""Smoke tests of the experiment scripts under scripts/."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_growth_checks_thresholds(capsys):
    assert _load("run_growth_checks").main() == 0
    lines = capsys.readouterr().out.splitlines()
    # t / (t^r)^(1/q) = t^(1 - r/q) is non-decreasing exactly for q >= r, so
    # the threshold is the first scheduled q (1, 2, 4, ...) at or above r.
    for expected in ("power vs t^1.5: non-decreasing from q=2",
                     "power vs t^2: non-decreasing from q=2",
                     "power vs t^3: non-decreasing from q=4",
                     "logbump(p=1) vs own q0=1: non-decreasing from q=1",
                     "logbump(p=2) vs own q0=1: non-decreasing from q=1"):
        assert expected in lines
    assert any(line.startswith("logbump(p=1) vs t^3: violation at q=32 ")
               for line in lines)
    assert sum(line.startswith("transfer ") and line.endswith("concave=True")
               for line in lines) == 2
