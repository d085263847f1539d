"""Self-test of the benchmark: exact counts, the oracle, seeded inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from orlicz import (BracketError, MeasureSpace, SimpleFunction,  # noqa: E402
                    luxemburg_norm, make_family)


def _traced(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def _is_count(name: str) -> bool:
    return (name.endswith(".calls") or name.endswith(".inverse_calls")
            or name == "luxemburg.norm.iterations")


@pytest.mark.parametrize("workload", ["norm-small", "diagnostics"])
def test_traced_counts_repeat_exactly(workload):
    # Runs of different length make different numbers of passes; the counts
    # and the attempted and failed operations must not depend on that.
    first, second = _traced(workload, 7, 1), _traced(workload, 7, 3)
    counts = {k: v["value"] for k, v in first["metrics"].items() if _is_count(k)}
    assert counts["young.psi.calls"] > 0 and counts["young.inverse.calls"] > 0
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if _is_count(k)}
    assert first["failed"] > 0
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("spec,q", [("power", 1.0), ("power", 4.0), ("logbump:p=2", 64.0),
                                    ("iterlog:N=2", 8.0), ("addie:N=2", 16.0),
                                    ("sinpiecewise", 33.0), ("powerlog_e", 4096.0)])
def test_oracle_flags_norm_perturbed_by_1e_9(spec, q):
    atoms = ((3.0, 0.5), (1.0, 2.0), (0.25, 7.0))
    norm = luxemburg_norm(make_family(spec).make(q),
                          SimpleFunction(atoms, MeasureSpace(math.inf))).norm
    assert oracle.check_norm(spec, q, atoms, norm) == oracle.OK
    for factor in (1.0 - 1e-9, 1.0 + 1e-9):
        assert oracle.check_norm(spec, q, atoms, norm * factor) == oracle.WRONG


def test_oracle_judges_refusals_by_range():
    representable = ((1.0, 1e-300),)  # norm of power q=4 is 1e-75
    assert oracle.check_norm("power", 4.0, representable, BracketError("x")) == oracle.REFUSED
    too_big = ((1e300, 1e300),)  # norm of power q=1 is 1e600
    assert oracle.check_norm("power", 1.0, too_big, BracketError("x")) == oracle.OK
    assert oracle.check_norm("power", 1.0, too_big, ValueError("x")) == oracle.REFUSED


def test_oracle_flags_wrong_verdict():
    inf = math.inf
    assert oracle.check_verdict("power", inf, ("delta_admissible", 1.0, None, None)) == oracle.OK
    assert oracle.check_verdict("power", inf, ("delta_admissible", 0.9, None, None)) == oracle.WRONG
    assert oracle.check_verdict(
        "power", inf, ("inadmissible_divergent", None, None, None)) == oracle.WRONG
    assert oracle.check_verdict(
        "sinpiecewise", inf, ("alpha_beta_admissible", None, 0.501, 1.0)) == oracle.OK
    assert oracle.check_verdict(
        "sinpiecewise", 2.0, ("alpha_beta_admissible", None, 0.501, 1.0)) == oracle.WRONG
    assert oracle.check_verdict(
        "iterlog:N=3", inf, ("undetermined", None, None, None)) == oracle.REFUSED
    assert oracle.check_verdict("identity", 2.0, ("undetermined", None, None, None)) == oracle.OK


def _signature(op: workloads.Op) -> tuple:
    """An operation with its seeded numbers replaced by their count."""
    if op.kind in ("norm", "transfer"):
        return (op.kind, *op.args[:-1], len(op.args[-1]))
    return (op.kind, *op.args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_operations(workload, tmp_path):
    def build(seed):
        inputs = workloads.make_inputs(workload, seed)
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        workloads.write_files(workload, inputs, str(workdir))
        state = workloads.setup(workload, str(workdir))
        ops = workloads.operations(workload, inputs, state, str(tmp_path), {})
        return inputs, ops

    (inputs_a, ops_a), (inputs_b, ops_b) = build(1), build(2)
    assert workloads.make_inputs(workload, 1) == inputs_a
    assert inputs_a != inputs_b
    assert [_signature(op) for op in ops_a] == [_signature(op) for op in ops_b]
