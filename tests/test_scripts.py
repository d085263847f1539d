"""Smoke tests of the experiment scripts under scripts/."""

import csv
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


def test_run_sweeps_converge_to_sup_norm(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["run_sweeps.py", "--outdir", str(tmp_path)])
    assert _load("run_sweeps").main() == 0
    # The paper's limit with C = 1: at the last q (4096) the norm is ||f||_inf.
    for name, sup in (("power_f31", 3.0), ("logbump_p2", 2.0),
                      ("iterlog_n2_p1", 2.0), ("iterlog_n2_p3", 2.0)):
        with open(tmp_path / f"{name}.csv", newline="") as handle:
            last = list(csv.DictReader(handle))[-1]
        assert abs(float(last["norm"]) - sup) <= 1e-9 * sup, (name, last)
    # The phase-locked sinpiecewise members oscillate: no limit, no target.
    with open(tmp_path / "sinpiecewise_locked.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and all(row["target"] == "" for row in rows)


def test_output_digest_repeats(capsys):
    digest = _load("output_digest")
    runs = []
    for _ in range(2):
        assert digest.main() == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0]] == [
        "classify", "growth", "norms", "norm_steps", "cli", "read", "verdicts",
        "answers"]
    assert all(len(line.split()[2]) == 64 for line in runs[0])


def test_import_cost_lists_the_modules_each_import_loads(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["import_cost.py", "--runs", "1"])
    assert _load("import_cost").main() == 0
    lines = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(lines) if not line.startswith("  ")]
    assert [lines[i].split(":")[0] for i in heads] == ["import orlicz", "import orlicz.cli"]
    assert all(lines[i].endswith(" ms of 1 runs") for i in heads)
    prefix = "  other modules it loads: "
    assert all(lines[i + 1].startswith(prefix) for i in heads)
    others = [set(lines[i + 1].removeprefix(prefix).split(", ")) for i in heads]
    assert not {"dataclasses", "inspect", "json", "numpy"} & others[0]
    assert "argparse" in others[1] and not any(m.startswith("orlicz") for m in others[1])
    modules = [sorted(line.split()[0] for line in lines[i + 2:j])
               for i, j in zip(heads, heads[1:] + [len(lines)])]
    # The limit diagnostics load on first use, not with the package or the CLI.
    assert modules == [["orlicz", "orlicz.luxemburg", "orlicz.measure", "orlicz.young"],
                       ["orlicz", "orlicz.cli", "orlicz.luxemburg", "orlicz.measure",
                        "orlicz.young"]]


def test_root_probes_counts_every_solve(capsys):
    from orlicz import make_family, young
    probes = _load("root_probes")
    assert probes.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["solve", "family", "solves", "mean", "max", ">=40"]
    table = {(row.split()[0], row.split()[1]): row.split()[2:] for row in rows}
    assert list(table) == [(kind, spec) for kind in ("inverse", "norm")
                           for spec in probes.SPECS] + \
        [("large-q", spec) for spec in ("iterlog:N=3", "addie:N=3")]
    for (kind, spec), (solves, mean, top, long) in table.items():
        # each q classify reads x 7 probe levels; 16 functions x 13 q; one function x 3 q
        inverse = len(probes.plan_qs(make_family(spec))) * 7 if kind == "inverse" else None
        assert int(solves) == {"inverse": inverse, "norm": 208, "large-q": 3}[kind], (kind, spec)
        assert 1.0 <= float(mean) <= int(top) <= young._STEPS + young._N0 + young._JUMPS
        assert 0 <= int(long) <= int(solves)
    assert table[("inverse", "power")][3] == "0"


def test_code_lines_counts_each_module(monkeypatch, capsys):
    code_lines = _load("code_lines")
    source = ('"""Doc\nstring."""\n\n# comment\nX = 1  # code\n\n\n'
              'def f():\n    """Doc."""\n    return "#"\n')
    assert code_lines.count(source) == (10, 3)
    monkeypatch.setattr("sys.argv", ["code_lines.py"])
    assert code_lines.main() == 0
    header, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["module", "lines", "code"]
    assert [row[0] for row in rows] == ["__init__.py", "admissibility.py", "cli.py",
                                        "luxemburg.py", "measure.py", "young.py"]
    assert all(0 < int(code) < int(lines) for _, lines, code in rows)
    assert total == ["total", str(sum(int(r[1]) for r in rows)),
                     str(sum(int(r[2]) for r in rows))]


def test_verdict_sweep_prints_one_line_per_case(capsys):
    sweep = _load("verdict_sweep")
    assert sweep.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(sweep.families()) * len(sweep.MASSES) == 72 * 12
    # label, params and mass name each case once, so a diff names the case
    assert len({tuple(line.split()[:3]) for line in lines}) == len(lines)
    assert all(len(line.split()) == 7 for line in lines)
    assert "identity - inf undetermined None None None" in lines
    assert "vanish - 2.0 inadmissible_vanishing None None None" in lines
