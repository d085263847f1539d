"""End-to-end exercises of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orlicz
from orlicz import cli
from orlicz.young import BracketError
from cases import vanishing


def _write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def ind8(tmp_path):
    """Indicator of a mass-8 set on an infinite space."""
    return _write_json(tmp_path, "ind8.json",
                       {"total_mass": "inf",
                        "atoms": [{"value": 1.0, "mass": 8.0}]})


@pytest.fixture
def zero_fn(tmp_path):
    return _write_json(tmp_path, "zero.json", {"total_mass": 5.0, "atoms": []})


@pytest.fixture
def unit_ind(tmp_path):
    return _write_json(tmp_path, "unit.json",
                       {"total_mass": "inf",
                        "atoms": [{"value": 1.0, "mass": 1.0}]})


# ---------------------------------------------------------------- README


def test_readme_examples_print_what_the_code_prints(tmp_path, monkeypatch, capsys, ind8):
    # Each "$ orlicz" line of the README's command-line block, run on the two
    # inputs it names, prints each line shown below it, up to a "...".
    _write_json(tmp_path, "f.json", {"total_mass": "inf", "atoms": [
        {"value": 2.0, "mass": 1.0}, {"value": 1.0, "mass": 3.0}]})
    monkeypatch.chdir(tmp_path)
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read().split("\n## Command line\n")[1]
    examples = [chunk.splitlines() for chunk in
                text.split("```sh\n")[1].split("```")[0].strip().split("\n\n")]
    assert [lines[0].split()[:3] for lines in examples] == [
        ["$", "orlicz", name] for name in ("norm", "sweep", "classify", "classify", "growth")]
    for command, *shown in examples:
        assert cli.main(command.split()[2:]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        if shown[-1] == "...":
            shown = shown[:-1]
            printed = printed[:len(shown)]
        assert printed == shown, command


# ---------------------------------------------------------------- norm


def test_norm_power_cube_root(capsys, ind8):
    # modular: 8 * (1/lam)^3 = 1  =>  lam = 2, printed to 12 significant digits
    assert cli.main(["norm", "--family", "power", "--q", "3",
                     "--input", ind8]) == 0
    assert capsys.readouterr().out == "2.00000000000\n"


def test_norm_zero_function(capsys, zero_fn):
    assert cli.main(["norm", "--family", "power", "--q", "2",
                     "--input", zero_fn]) == 0
    assert capsys.readouterr().out == "0\n"


def test_norm_unit_indicator(capsys, unit_ind):
    assert cli.main(["norm", "--family", "power", "--q", "7",
                     "--input", unit_ind]) == 0
    assert capsys.readouterr().out == "1.00000000000\n"


def test_norm_subprocess_bytes(ind8):
    # The child imports the package this process imported, installed or not.
    src = os.path.dirname(os.path.dirname(orlicz.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "orlicz.cli", "norm", "--family", "power",
         "--q", "3", "--input", ind8],
        capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == b"2.00000000000\n"
    assert proc.stderr == b""


def test_fmt_sig_rendering():
    assert cli._fmt_sig(0.0) == "0"
    assert cli._fmt_sig(2.0) == "2.00000000000"
    assert cli._fmt_sig(1.0671404006768237) == "1.06714040068"
    assert cli._fmt_sig(123.456) == "123.456000000"


def _numpy_sig(x):
    # The formatter the stdlib code replaces, kept here as its oracle.
    return np.format_float_positional(x, precision=12, unique=False,
                                      fractional=False, trim="k")


@pytest.mark.parametrize("x, text", [
    (0.5, "0.50000000000"),
    (0.1, "0.100000000000"),
    (1234567890125.0, "1234567890120."),  # a 13-digit tie rounds to even
    (1234567890135.0, "1234567890140."),
    (0.99999999999999, "1.00000000000"),  # a run of 9s carries
    (9999999999999.0, "10000000000000."),
    (0.0123456789019600, "0.012345678902"),  # a round-up drops its zeros
    (0.05, "0.0500000000000"),  # a truncation keeps them
    (5e-324, None),
    (1e300, None),
    (sys.float_info.max, "1797693134860" + "0" * 296 + "."),
])
def test_fmt_sig_pinned(x, text):
    assert cli._fmt_sig(x) == _numpy_sig(x)
    if text is not None:
        assert cli._fmt_sig(x) == text


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
@settings(max_examples=2000, deadline=None)
def test_fmt_sig_matches_numpy(bits):
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    if math.isfinite(x) and x != 0.0:
        assert cli._fmt_sig(x) == _numpy_sig(x)


# ---------------------------------------------------------------- exit codes


def test_bad_family_exits_2(capsys, ind8):
    assert cli.main(["norm", "--family", "nosuch", "--q", "2",
                     "--input", ind8]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_json_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["norm", "--family", "power", "--q", "2",
                     "--input", str(path)]) == 2


def test_missing_file_exits_2(tmp_path):
    assert cli.main(["norm", "--family", "power", "--q", "2",
                     "--input", str(tmp_path / "absent.json")]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_numeric_failure_exits_3(capsys, ind8):
    with mock.patch.object(cli, "luxemburg_norm",
                           side_effect=BracketError("no bracket")):
        assert cli.main(["norm", "--family", "power", "--q", "2",
                         "--input", ind8]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_classify_nan_psi_exits_3(capsys):
    # t**q with a NaN hole on (1e-3, 1.9): an inverse probe meets the hole.
    family = orlicz.YoungFamily(
        "nan-gap", lambda t, q: math.nan if 1e-3 < t < 1.9 else t ** q, {}, q_min=1.0,
        array_fn=lambda t, q: np.where((t > 1e-3) & (t < 1.9), np.nan, t ** q))
    with mock.patch.object(cli, "make_family", return_value=family):
        assert cli.main(["classify", "--family", "nan-gap"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: nan-gap[q=") and err.endswith(") is NaN\n")


def test_classify_non_young_family_exits_2(capsys):
    family = orlicz.YoungFamily("sqrt", lambda t, q: math.sqrt(t), {}, q_min=0.0)
    with mock.patch.object(cli, "make_family", return_value=family):
        assert cli.main(["classify", "--family", "sqrt"]) == 2
    assert capsys.readouterr().err.startswith("error: sqrt[q=1]: not convex on t=")


def test_norm_beyond_double_range_exits_3(capsys, tmp_path):
    path = _write_json(tmp_path, "huge.json", {"total_mass": "inf", "atoms": [
        {"value": 1.900779840119371e+279, "mass": 3.6026157030657704e-09},
        {"value": 8.721658367086122e+250, "mass": 8.160977779935241e+197}]})
    assert cli.main(["norm", "--family", "logbump", "--q", "16", "--input", path]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


def test_norm_undecided_overflow_exits_3(capsys, tmp_path):
    path = _write_json(tmp_path, "subnormal.json", {"total_mass": "inf", "atoms": [
        {"value": 1, "mass": 1e-310}]})
    assert cli.main(["norm", "--family", "power", "--q", "2", "--input", path]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: power[q=2]: the modular")


@pytest.mark.parametrize("field,name", [("value", "atom #0 value"), ("mass", "atom #0 mass"),
                                        ("total_mass", "total_mass")])
def test_norm_int_beyond_double_range_exits_2(capsys, tmp_path, field, name):
    doc = {"total_mass": "inf", "atoms": [{"value": 1, "mass": 1}]}
    if field == "total_mass":
        doc["total_mass"] = 10**400
    else:
        doc["atoms"][0][field] = 10**400
    path = _write_json(tmp_path, "big.json", doc)
    assert cli.main(["norm", "--family", "power", "--q", "2", "--input", path]) == 2
    assert capsys.readouterr().err == f"error: {name} is beyond the double range\n"


@pytest.mark.parametrize("literal", ["1e400", "Infinity"])
def test_norm_total_mass_beyond_double_range_exits_2(capsys, tmp_path, literal):
    # Only the string "inf" asks for an infinite space.
    path = tmp_path / "big.json"
    path.write_text('{"total_mass": %s, "atoms": [{"value": 1.0, "mass": 1.0}]}' % literal)
    assert cli.main(["norm", "--family", "power", "--q", "2", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "error: total_mass is beyond the double range\n"


@pytest.mark.parametrize("content,reason", [
    # json.load meets a literal longer than int() converts: a plain ValueError
    (b'{"total_mass": "inf", "atoms": [{"value": 1%s, "mass": 1}]}' % (b"0" * 5000),
     "an integer is beyond the double range"),
    (b'\xff{}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_norm_json_the_parser_refuses_exits_2(capsys, tmp_path, content, reason):
    path = tmp_path / "refused.json"
    path.write_bytes(content)
    assert cli.main(["norm", "--family", "power", "--q", "2", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: invalid JSON in {str(path)!r}: {reason}\n"
    assert "set_int_max_str_digits" not in err


# ---------------------------------------------------------------- sweep


def _sweep_lines(capsys, args):
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    return out, out.strip().split("\n")


def test_sweep_csv_schema(capsys, ind8):
    _, lines = _sweep_lines(capsys, [
        "sweep", "--family", "power", "--input", ind8,
        "--q-min", "1", "--q-max", "4096", "--q-steps", "13"])
    assert lines[0] == "q,norm,target,abs_error"
    assert len(lines) == 14
    qs, norms, targets, errors = zip(*(line.split(",") for line in lines[1:]))
    # doubling schedule snaps to exact integers despite geomspace rounding
    assert list(qs) == [repr(float(2 ** j)) for j in range(13)]
    target = float(targets[0])
    assert set(targets) == {targets[0]}
    assert target == pytest.approx(1.0, abs=1e-9)
    for q, norm, err in zip(qs, norms, errors):
        assert float(norm) == pytest.approx(8.0 ** (1.0 / float(q)), rel=1e-12)
        assert float(err) == abs(float(norm) - target)


def test_sweep_blank_target_without_limit(capsys, ind8):
    # the divergent family gets no target column, only q and norm
    _, lines = _sweep_lines(capsys, [
        "sweep", "--family", "powerlog_e", "--input", ind8,
        "--q-min", "1", "--q-max", "8", "--q-steps", "4"])
    assert lines[0] == "q,norm,target,abs_error"
    assert len(lines) == 5
    for line in lines[1:]:
        assert line.endswith(",,")


def test_sweep_out_file_matches_stdout(capsys, tmp_path, ind8):
    args = ["sweep", "--family", "power", "--input", ind8,
            "--q-min", "1", "--q-max", "16", "--q-steps", "5"]
    out, _ = _sweep_lines(capsys, args)
    out_path = tmp_path / "sweep.csv"
    assert cli.main(args + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == out


@pytest.mark.parametrize("name", [None, "missing/sweep.csv"])
def test_sweep_unwritable_out_exits_2(capsys, tmp_path, ind8, name):
    # a directory, or a file in a directory that does not exist
    out = str(tmp_path if name is None else tmp_path / name)
    args = ["sweep", "--family", "power", "--input", ind8,
            "--q-min", "1", "--q-max", "4", "--q-steps", "3", "--out", out]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out!r}: ")


def test_sweep_deterministic(capsys, ind8):
    args = ["sweep", "--family", "logbump:p=2", "--input", ind8,
            "--q-min", "1", "--q-max", "64", "--q-steps", "7"]
    first, _ = _sweep_lines(capsys, args)
    second, _ = _sweep_lines(capsys, args)
    assert first == second


def test_sweep_phase_locked_schedule(capsys, ind8):
    _, lines = _sweep_lines(capsys, [
        "sweep", "--family", "sinpiecewise", "--input", ind8,
        "--phase-locked", "--q-min", "33", "--q-max", "36"])
    qs = [float(line.split(",")[0]) for line in lines[1:]]
    assert qs == [math.pi / 2.0 + k * math.pi for k in (33, 34, 35, 36)]


def test_sweep_phase_locked_stops_at_the_phase_limit(capsys, tmp_path):
    # Past k = 2^44 + 1 a double q no longer holds sin q at +-1: at k = 2^50 + 1
    # the norm of {1 on mass 3} would print 1.1888, where the locked one is 1.2.
    mass3 = _write_json(tmp_path, "mass3.json",
                        {"total_mass": "inf", "atoms": [{"value": 1.0, "mass": 3.0}]})
    base = ["sweep", "--family", "sinpiecewise", "--input", mass3, "--phase-locked"]
    assert cli.main(base + ["--q-min", str(2 ** 50), "--q-max", str(2 ** 50)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "q-max <= 2^44 + 1" in err
    _, lines = _sweep_lines(capsys, base + ["--q-min", str(2 ** 44), "--q-max", str(2 ** 44)])
    assert [float(line.split(",")[0]) for line in lines[1:]] == [math.pi / 2.0 + 2 ** 44 * math.pi]


def test_sweep_rejects_bad_bounds(capsys, ind8):
    base = ["sweep", "--family", "power", "--input", ind8]
    assert cli.main(base + ["--q-min", "0", "--q-max", "4"]) == 2
    assert cli.main(base + ["--q-min", "8", "--q-max", "4"]) == 2
    assert cli.main(base + ["--q-steps", "0"]) == 2
    assert cli.main(base + ["--phase-locked", "--q-min", "0", "--q-max", "4"]) == 2
    assert cli.main(base + ["--phase-locked", "--q-min", "1.5", "--q-max", "3.7"]) == 2
    assert cli.main(base + ["--phase-locked", "--q-max", "inf"]) == 2
    assert cli.main(base + ["--q-max", "inf"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("bounds,count", [
    (["--q-steps", "1000000000000"], 10 ** 12),
    (["--phase-locked", "--q-min", "1", "--q-max", "1e18"], 10 ** 18),
])
def test_sweep_point_count_is_bounded(capsys, ind8, monkeypatch, bounds, count):
    # Checked before any schedule is built: both builders fail if called.
    def unbuilt(*args, **kwargs):
        raise AssertionError("schedule built")
    monkeypatch.setattr(cli, "_phase_locked_schedule", unbuilt)
    monkeypatch.setattr(np, "geomspace", unbuilt)
    assert cli.main(["sweep", "--family", "power", "--input", ind8] + bounds) == 2
    assert capsys.readouterr().err == (
        f"error: a sweep takes at most {cli._MAX_SWEEP_POINTS} q, asked for {count}\n")


@pytest.mark.parametrize("phase_locked", [True, False])
def test_sweep_takes_the_bound_itself(phase_locked):
    import argparse
    top = cli._MAX_SWEEP_POINTS

    def qs(count):
        return cli._sweep_qs(argparse.Namespace(
            phase_locked=phase_locked, q_min=1.0,
            q_max=float(count) if phase_locked else 4096.0, q_steps=count))
    assert len(qs(top)) == top
    with pytest.raises(ValueError, match=f"at most {top} q, asked for {top + 1}"):
        qs(top + 1)


def test_sweep_help_states_the_bound(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"at most {cli._MAX_SWEEP_POINTS}" in help_text


# ---------------------------------------------------------------- classify


@pytest.mark.parametrize("family,mass,expected", [
    ("power", "inf", "delta-admissible delta=1.000"),
    ("powerlog_e", "inf", "inadmissible: divergent"),
    ("identity", "inf", "undetermined"),
    ("sinpiecewise", "2", "delta-admissible delta=1.000"),
    # the scans start where N = 3 leaves its plateau: these printed 99.963
    # and 23.861 while they started at q = 1
    ("iterlog:N=3", "0.01", "delta-admissible delta=1.000"),
    ("addie:N=3", "0.01", "delta-admissible delta=1.000"),
])
def test_classify_verdict_lines(capsys, family, mass, expected):
    assert cli.main(["classify", "--family", family,
                     "--total-mass", mass]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_classify_oscillating_band(capsys):
    assert cli.main(["classify", "--family", "sinpiecewise"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha-beta-admissible alpha=0.5")
    assert out.endswith("beta=1.000\n")


def test_classify_vanishing_verdict_line(capsys, monkeypatch):
    # No catalog family vanishes: classify a test family in its place.
    real = orlicz.classify
    monkeypatch.setattr(orlicz, "classify",
                        lambda family, space: real(vanishing(), space))
    assert cli.main(["classify", "--family", "power"]) == 0
    assert capsys.readouterr().out == "inadmissible: vanishing\n"


def test_classify_bad_mass_exits_2(capsys):
    assert cli.main(["classify", "--family", "power",
                     "--total-mass", "nope"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("mass", ["1e400", "1e309"])
def test_classify_mass_beyond_double_range_exits_2(capsys, mass):
    assert cli.main(["classify", "--family", "sinpiecewise", "--total-mass", mass]) == 2
    assert capsys.readouterr().err == f"error: total mass {mass!r} is beyond the double range\n"


@pytest.mark.parametrize("mass", ["inf", "Infinity", "+inf", " INF "])
def test_classify_infinite_mass_spellings(capsys, mass):
    assert cli.main(["classify", "--family", "power", "--total-mass", mass]) == 0
    assert capsys.readouterr().out == "delta-admissible delta=1.000\n"


def test_classify_mass_with_overflowing_reciprocal_exits_3(capsys):
    # a valid mass whose reciprocal is beyond the double range
    assert cli.main(["classify", "--family", "power",
                     "--total-mass", "1e-320"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and "1e-320" in err


# ---------------------------------------------------------------- growth


def test_growth_clean_report(capsys):
    assert cli.main(["growth", "--family", "power", "--phi", "power",
                     "--q", "1", "--k", "10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "non-decreasing from q=1 on (0, 10]"
    assert lines[1:] == [f"q={q}: ok" for q in (1, 2, 4, 8, 16, 32)]


def test_growth_violation_report(capsys):
    assert cli.main(["growth", "--family", "logbump", "--phi", "power",
                     "--q", "3", "--k", "10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("violation at q=32: ratio(")
    assert " > ratio(" in lines[0]
    assert all(line.endswith(": violation") for line in lines[1:])


def test_growth_comparison_overflowing_exits_3(capsys):
    # t^2 overflows on the top of the grid (0, 1e200]: a numeric failure,
    # not bad input.
    assert cli.main(["growth", "--family", "power", "--phi", "power",
                     "--q", "2", "--k", "1e200"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: power[q=2] overflows at grid point t=")


def test_growth_k_below_the_grid_start_exits_3(capsys):
    # 1e-9 * k underflows to 0 for k below about 2.5e-315.
    assert cli.main(["growth", "--family", "power", "--phi", "power",
                     "--q", "2", "--k", "1e-320"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numeric failure: k=1e-320 is so small that the grid "
                            "start 1e-9 * k underflows to 0\n")


def test_growth_comparison_underflowing_near_zero(capsys):
    # t^40 underflows to 0 at the small end of the grid; those points are
    # skipped, and the exact law q >= 40 fails on the whole schedule 1..32.
    assert cli.main(["growth", "--family", "power", "--phi", "power",
                     "--q", "40", "--k", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("violation at q=32: ratio(")
    assert lines[1:] == [f"q={q}: violation" for q in (1, 2, 4, 8, 16, 32)]
