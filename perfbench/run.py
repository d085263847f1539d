#!/usr/bin/env python3
"""Benchmark of the orlicz library and CLI on four seeded workloads.

    python3 perfbench/run.py --workload norm-bulk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``orlicz`` is imported from its
``src/`` directory.  The inputs are generated from ``--seed`` before any
timing.  The workload's fixed list of operations is then run in passes,
closed-loop, until ``--seconds`` have elapsed.  Every answer is judged by an
mpmath oracle outside the timed region (see ``oracle.py``).  Times are
scaled by the host-speed gauge (see ``gauge.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs the same untraced passes as a baseline, then traces set-up plus one
pass and reports the per-layer metrics.  The last line of stdout is a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the seed, the versions, the failed operations and
every metric by name and unit.  README.md in this directory defines them.
"""

from __future__ import annotations

import os

# One thread per process: numpy's BLAS must not start worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the benchmark and its children, so that the host-speed gauge
# reads the CPU that the timed work runs on.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import gauge  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
CHILD = os.path.join(BENCH, "child.py")
SETUP_REPEATS = 9
PROBE_REPEATS = 5
GAUGE_EVERY_S = 0.1  # longest stretch of timed work between two gauge readings

UNITS = {
    "setup_s": "s", "pass_s": "s", "op.p50_ms": "ms", "op.p90_ms": "ms",
    "ops_per_s": "1/s", "ok_frac": "frac", "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    seconds: float  # scaled: the sum of the scaled operation times
    raw_seconds: float
    op_seconds: list[float]
    outcomes: list


def call(op):
    """The outcome of one operation: its result, or the exception it raised."""
    try:
        return op.call()
    except Exception as exc:  # a refused operation is a measured outcome
        return exc.with_traceback(None)


def run_pass(ops: list, host: gauge.Gauge) -> Pass:
    """One closed-loop pass, with a gauge reading at least every GAUGE_EVERY_S."""
    raw, scales, outcomes = [], [], []
    before = host.read()
    stretch = time.perf_counter()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        outcomes.append(call(op))
        end = time.perf_counter()
        raw.append(end - start)
        if end - stretch >= GAUGE_EVERY_S or i == len(ops) - 1:
            after = host.read()
            scales += [host.factor(before, after)] * (len(raw) - len(scales))
            before, stretch = after, time.perf_counter()
    op_seconds = [r * s for r, s in zip(raw, scales)]
    return Pass(sum(op_seconds), sum(raw), op_seconds, outcomes)


def run_passes(ops: list, seconds: float, host: gauge.Gauge) -> tuple[list[Pass], int]:
    """Passes until ``seconds`` have elapsed, and this process's peak RSS in
    KiB after the first one (later passes only add the harness's records)."""
    start = time.perf_counter()
    passes = [run_pass(ops, host)]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, host))
    return passes, peak_kb


def scaled_median(measure, repeats: int, host: gauge.Gauge) -> float:
    """Median over ``repeats`` of a measurement, each scaled by the gauge."""
    values = []
    for _ in range(repeats):
        before = host.read()
        raw = measure()
        values.append(raw * host.factor(before, host.read()))
    return statistics.median(values)


def _key(outcome):
    """What two runs of one operation must agree on."""
    if isinstance(outcome, BaseException):
        return (type(outcome).__name__, str(outcome))
    if isinstance(outcome, workloads.CliResult):
        return (outcome.returncode, outcome.stdout)
    return outcome


class Judge:
    """Applies the oracle to each pass; each distinct answer is checked once."""

    def __init__(self, ops: list, cli_expected: list | None) -> None:
        self.ops = ops
        self.cli_expected = cli_expected
        self.first = None
        self.deterministic = True
        self._cache: dict = {}

    def __call__(self, outcomes: list) -> list[str]:
        keys = [_key(o) for o in outcomes]
        if self.first is None:
            self.first = keys
        elif keys != self.first:
            self.deterministic = False
        verdicts = []
        for i, (op, outcome) in enumerate(zip(self.ops, outcomes)):
            if op.kind == "growth":
                partner = outcomes[i + 1 if op.args[0] == "growth_check" else i - 1]
                verdicts.append(oracle.check_growth_pair(outcome, partner))
                continue
            if (i, keys[i]) not in self._cache:
                self._cache[i, keys[i]] = self._check(i, op, outcome)
            verdicts.append(self._cache[i, keys[i]])
        return verdicts

    def _check(self, i: int, op, outcome) -> str:
        if op.kind == "norm":
            return oracle.check_norm(*op.args, outcome)
        if op.kind == "classify":
            return oracle.check_verdict(*op.args, outcome)
        if op.kind == "transfer":
            return oracle.check_transfer(*op.args, outcome)
        if op.kind == "cli":
            stdout, library = self.cli_expected[i]
            if outcome.returncode != 0:
                return oracle.REFUSED
            return library if outcome.stdout == stdout else oracle.WRONG
        raise ValueError(f"no oracle for {op.kind!r}")


def cli_expectations(workdir: str) -> list[tuple[bytes, str]]:
    """In-process stdout of each CLI command, and the oracle's view of it."""
    import orlicz
    import orlicz.cli
    expected = []
    for argv in workloads.cli_argvs(workdir):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = orlicz.cli.main(argv)
        text = buffer.getvalue()
        opts = dict(zip(argv[1::2], argv[2::2]))
        if "--input" in opts:
            with open(opts["--input"], encoding="utf-8") as handle:
                atoms = [(a["value"], a["mass"]) for a in json.load(handle)["atoms"]]
        if code != 0:
            verdict = oracle.REFUSED
        elif argv[0] == "norm":
            f = orlicz.read_simple_function(opts["--input"])
            norm = orlicz.luxemburg_norm(
                orlicz.make_family(opts["--family"]).make(float(opts["--q"])), f).norm
            verdict = oracle.check_norm(opts["--family"], float(opts["--q"]), atoms, norm)
        elif argv[0] == "classify":
            r = orlicz.classify(orlicz.make_family(opts["--family"]),
                                orlicz.MeasureSpace(math.inf))
            verdict = oracle.check_verdict(opts["--family"], math.inf,
                                           (r.verdict, r.delta, r.alpha, r.beta))
        elif argv[0] == "growth":
            family = orlicz.make_family(opts["--family"])
            phi = orlicz.make_family(opts["--phi"]).make(float(opts["--q"]))
            direct, inverse = (g(family, phi, float(opts["--k"])) for g in (
                orlicz.growth_check, orlicz.growth_check_inverse_form))
            verdict = oracle.check_growth_pair(
                (direct.q_threshold, direct.per_q), (inverse.q_threshold, inverse.per_q))
        else:  # sweep: every row's norm, as printed, against the oracle
            verdict = oracle.worst(
                oracle.check_norm(opts["--family"], float(q), atoms, float(norm))
                for q, norm, *_ in (row.split(",") for row in text.splitlines()[1:]))
        expected.append((text.encode(), verdict))
    return expected


def setup_in_child(workload: str, workdir: str, env: dict) -> float:
    """Seconds of the workload's set-up, timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, CHILD, "setup", workload, workdir], env=env,
                         check=True, stdin=subprocess.DEVNULL, capture_output=True)
    return float(out.stdout)


def child_seconds(code: str, env: dict) -> float:
    """Wall seconds of ``python -c code``, or the seconds the child prints."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdin=subprocess.DEVNULL, capture_output=True).stdout
    return float(out) if out.strip() else time.perf_counter() - start


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def op_medians(passes: list[Pass]) -> list[float]:
    """Each operation's median time over the passes.  Latency percentiles run
    over these, one value per operation of the list."""
    return [statistics.median(times) for times in zip(*(p.op_seconds for p in passes))]


def op_verdicts(verdicts: list) -> list[str]:
    """One verdict per operation of the list: its first verdict that is not
    OK in any pass, else OK.  Counting operations rather than operations times
    passes keeps ``attempted`` and ``failed`` the same for one seed however
    many passes fit in the run."""
    return [next((v for v in vs if v != oracle.OK), oracle.OK) for vs in zip(*verdicts)]


def end_to_end(passes: list[Pass], verdicts: list[str], setup_s: float, peak_kb: int) -> dict:
    op_times = op_medians(passes)
    ok_ops = verdicts.count(oracle.OK)
    pass_s = statistics.median(p.seconds for p in passes)
    return {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "op.p50_ms": 1e3 * statistics.median(op_times),
        "op.p90_ms": 1e3 * percentile(op_times, 90),
        "ops_per_s": ok_ops / pass_s,
        "ok_frac": ok_ops / len(verdicts),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def describe(workload: str, ops: list, passes: list[Pass], verdicts: list[str]) -> list[str]:
    """Informational lines: latency per kind of operation, the failed operations."""
    lines = [f"# raw wall pass_s={statistics.median(p.raw_seconds for p in passes)!r}"]
    by_kind: dict = {}
    for op, t in zip(ops, op_medians(passes)):
        by_kind.setdefault(op.args[0] if op.kind == "growth" else op.kind, []).append(t)
    for label, times in sorted(by_kind.items()):
        lines.append(f"# {label}: n={len(times)} p50={1e3 * statistics.median(times):.3f} ms "
                     f"p90={1e3 * percentile(times, 90):.3f} ms")
    if workload.startswith("norm"):
        atoms = sum(len(op.args[2]) for op in ops)
        seconds = statistics.median(p.seconds for p in passes)
        lines.append(f"# atoms per pass={atoms} atoms_per_s={atoms / seconds:.1f}")
    for op, verdict in zip(ops, verdicts):
        if verdict != oracle.OK:
            args = op.args if op.kind != "norm" else (
                *op.args[:2], f"{len(op.args[2])} atoms",
                f"masses {min(m for _, m in op.args[2]):.3g}..{max(m for _, m in op.args[2]):.3g}")
            lines.append(f"# {verdict}: {op.kind} {args}")
    return lines


def traced_pass(workload: str, inputs: dict, workdir: str, env: dict, host: gauge.Gauge
                ) -> tuple[float, float, dict, list]:
    """Set up and run one pass under the tracer.

    Returns the scaled pass seconds, the gauge factor, the tracer aggregates
    and the outcomes.
    """
    before = host.read()
    if workload == "cli":
        agg: dict = {}
        outcomes = []
        start = time.perf_counter()
        for i, argv in enumerate(workloads.cli_argvs(workdir)):
            summary_path = os.path.join(workdir, f"trace{i}.json")
            outcomes.append(workloads.run_cli(
                argv, env, launcher=[CHILD, "trace-cli", summary_path]))
            with open(summary_path, encoding="utf-8") as handle:
                tracer.add(agg, json.load(handle))
        raw = time.perf_counter() - start
    else:
        trace = tracer.Tracer()
        trace.install()
        try:
            state = workloads.setup(workload, workdir)
            ops = workloads.operations(workload, inputs, state, workdir, env)
            start = time.perf_counter()
            outcomes = [call(op) for op in ops]
            raw = time.perf_counter() - start
        finally:
            trace.uninstall()
        agg = trace.summary()
    factor = host.factor(before, host.read())
    return raw * factor, factor, agg, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "orlicz", "__init__.py")):
        print(f"error: no orlicz sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # On SIGTERM, unwind: children are stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    env = workloads.child_env(SRC)
    inputs = workloads.make_inputs(args.workload, args.seed)
    workloads.write_files(args.workload, inputs, workdir)

    import numpy
    import orlicz
    if os.path.dirname(os.path.dirname(os.path.abspath(orlicz.__file__))) != SRC:
        print(f"error: orlicz imported from {orlicz.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "nproc": os.cpu_count(), "python": platform.python_version(),
                             "numpy": numpy.__version__, "mpmath": oracle.mpmath.__version__}))

    state = workloads.setup(args.workload, workdir)
    ops = workloads.operations(args.workload, inputs, state, workdir, env)
    judge = Judge(ops, cli_expectations(workdir) if args.workload == "cli" else None)

    procs = gauge.processes(env)
    host = procs if args.workload == "cli" else gauge.IN_PROCESS
    if not args.trace:
        setup_s = scaled_median(lambda: setup_in_child(args.workload, workdir, env),
                                SETUP_REPEATS, procs)
    passes, peak_kb = run_passes(ops, args.seconds, host)
    if args.workload == "cli":  # the work runs in the children
        peak_kb = max(o.maxrss_kb for p in passes for o in p.outcomes)
    verdicts = [judge(p.outcomes) for p in passes]
    if args.trace:
        seconds, factor, agg, outcomes = traced_pass(args.workload, inputs, workdir, env, host)
        verdicts.append(judge(outcomes))
    verdicts = op_verdicts(verdicts)
    if not args.trace:
        metrics = end_to_end(passes, verdicts, setup_s, peak_kb)
        units = UNITS
    else:
        metrics = tracer.layer_metrics(agg, factor)
        metrics["cli.interpreter_s"] = scaled_median(
            lambda: child_seconds("pass", env), PROBE_REPEATS, procs)
        metrics["cli.import_s"] = scaled_median(lambda: child_seconds(
            "import time; t = time.perf_counter(); import orlicz; "
            "print(time.perf_counter() - t)", env), PROBE_REPEATS, procs)
        metrics["trace.overhead_frac"] = (
            seconds / statistics.median(p.seconds for p in passes) - 1.0)
        units = {name: tracer.unit(name) for name in metrics}

    attempted = len(verdicts)
    failed = attempted - verdicts.count(oracle.OK)
    wrong = verdicts.count(oracle.WRONG)
    for line in describe(args.workload, ops, passes, verdicts):
        print(line)
    print(f"# passes={len(passes)} attempted={attempted} failed={failed} "
          f"(wrong={wrong}, refused={failed - wrong}) failed_frac={failed / attempted:.6f} "
          f"deterministic={judge.deterministic}")
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": judge.deterministic, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
