"""Span tracer that wraps the public functions of ``orlicz`` from outside.

Each wrapper is patched where its callers look the name up: module globals
(``orlicz.luxemburg.modular`` is found by ``luxemburg_norm`` there), the
names re-exported by ``orlicz`` and imported into ``orlicz.cli``, and the
class attributes ``YoungFunction.__call__``, ``YoungFunction.inverse``,
``YoungFamily.make`` and ``SimpleFunction.__post_init__``.

Every coarse call records one span with a link to its parent.  The Psi leaf
(``YoungFunction.__call__``) runs hundreds of thousands of times per norm, so
it only adds its count and time to the span that is open when it runs.  A
span's self time is its duration minus the time of its child spans and of
the Psi calls made directly under it.  Spans stay in memory until
``summary`` reduces them; timings taken under tracing are never mixed into
the end-to-end figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (layer, attribute, owners): the owners are module names, or "module:Class".
LAYERS = (
    ("young.inverse", "inverse", ("orlicz.young:YoungFunction",)),
    ("young.make", "make", ("orlicz.young:YoungFamily",)),
    ("young.make_family", "make_family", ("orlicz.young", "orlicz", "orlicz.cli")),
    ("measure.simple_function", "__post_init__", ("orlicz.measure:SimpleFunction",)),
    ("measure.read", "read_simple_function", ("orlicz.measure", "orlicz", "orlicz.cli")),
    ("luxemburg.norm", "luxemburg_norm", ("orlicz.luxemburg", "orlicz", "orlicz.cli")),
    ("luxemburg.modular", "modular", ("orlicz.luxemburg", "orlicz")),
    ("admissibility.classify", "classify", ("orlicz.admissibility", "orlicz", "orlicz.cli")),
    ("admissibility.classify_sequence", "classify_sequence",
     ("orlicz.admissibility", "orlicz")),
    ("admissibility.growth_check", "growth_check",
     ("orlicz.admissibility", "orlicz", "orlicz.cli")),
    ("admissibility.growth_check_inverse_form", "growth_check_inverse_form",
     ("orlicz.admissibility", "orlicz")),
    ("admissibility.logbump_transfer", "logbump_transfer",
     ("orlicz.admissibility", "orlicz")),
    ("cli.main", "main", ("orlicz.cli",)),
)
PSI_OWNER = "orlicz.young:YoungFunction"

# Results worth keeping from a span: the norm solver's iteration count and
# whether a sequence classification came back undetermined.
_CAPTURE = {
    "luxemburg.norm": lambda r: r.iterations,
    "admissibility.classify_sequence": lambda r: int(r.kind == "undetermined"),
}

# Inverse solves are also counted by the coarse layer they run under.
_INVERSE_PARENTS = {
    "luxemburg.norm": "luxemburg.norm.inverse_calls",
    "admissibility.classify": "admissibility.classify.inverse_calls",
    "admissibility.growth_check": "admissibility.growth.inverse_calls",
    "admissibility.growth_check_inverse_form": "admissibility.growth.inverse_calls",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "psi_calls", "psi_s",
                 "result")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.psi_calls = 0
        self.psi_s = 0.0
        self.result = None


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = sys.modules.get(module)
    return getattr(obj, cls) if obj is not None and cls else obj


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``."""

    def __init__(self) -> None:
        self.root = Span("root", None)
        self.stack = [self.root]
        self.spans: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, attr, owners in LAYERS:
            targets = [o for o in map(_resolve, owners) if o is not None]
            if not targets:
                continue
            original = getattr(targets[0], attr)
            wrapper = self._span_wrapper(layer, original)
            for owner in targets:
                if getattr(owner, attr, None) is original:
                    self._patch(owner, attr, wrapper)
        owner = _resolve(PSI_OWNER)
        self._patch(owner, "__call__", self._psi_wrapper(owner.__call__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, original):
        stack, spans, capture = self.stack, self.spans, _CAPTURE.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(name, parent)
            spans.append(span)
            stack.append(span)
            span.start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
                parent.child_s += span.end - span.start
            if capture is not None:
                span.result = capture(result)
            return result
        return wrapper

    def _psi_wrapper(self, original):
        stack = self.stack

        @functools.wraps(original)
        def psi(self, t):
            start = _clock()
            try:
                return original(self, t)
            finally:
                span = stack[-1]
                span.psi_calls += 1
                span.psi_s += _clock() - start
        return psi

    def summary(self) -> dict:
        """Additive per-layer aggregates; sums of summaries are summaries."""
        out: dict = defaultdict(float)
        for span in [self.root, *self.spans]:
            out["young.psi.calls"] += span.psi_calls
            out["young.psi.s"] += span.psi_s
        for span in self.spans:
            duration = span.end - span.start
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.s"] += duration
            out[f"{span.name}.self_s"] += duration - span.child_s - span.psi_s
            out[f"{span.name}.psi_calls"] += span.psi_calls
            if span.result is not None:
                out[f"{span.name}.result"] += span.result
            if span.name == "young.inverse":
                counted = set()
                parent = span.parent
                while parent is not None:
                    key = _INVERSE_PARENTS.get(parent.name)
                    if key is not None and key not in counted:
                        out[key] += 1
                        counted.add(key)
                    parent = parent.parent
        return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def layer_metrics(agg: dict, factor: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from summed aggregates.

    Times are multiplied by ``factor``, the gauge scale of the traced pass.
    """
    g = lambda key: agg.get(key, 0.0)  # noqa: E731
    calls = lambda key: int(g(key))  # noqa: E731
    metrics = {
        "young.psi.calls": calls("young.psi.calls"),
        "young.psi.self_s": g("young.psi.s"),
        "young.inverse.calls": calls("young.inverse.calls"),
        "young.inverse.self_s": g("young.inverse.self_s"),
        "young.inverse.psi_per_call": _ratio(g("young.inverse.psi_calls"),
                                             g("young.inverse.calls")),
        "young.make.calls": calls("young.make.calls"),
        "young.make_family.s": g("young.make_family.s"),
        "measure.simple_function.self_s": g("measure.simple_function.self_s"),
        "measure.read.self_s": g("measure.read.self_s"),
        "luxemburg.norm.calls": calls("luxemburg.norm.calls"),
        "luxemburg.norm.iterations": calls("luxemburg.norm.result"),
        "luxemburg.norm.inverse_calls": calls("luxemburg.norm.inverse_calls"),
        "luxemburg.modular.calls": calls("luxemburg.modular.calls"),
        "luxemburg.modular.self_s": g("luxemburg.modular.self_s"),
        "luxemburg.modular.per_solve": _ratio(g("luxemburg.modular.calls"),
                                              g("luxemburg.norm.calls")),
        "admissibility.classify.self_s": g("admissibility.classify.self_s"),
        "admissibility.classify.inverse_calls":
            calls("admissibility.classify.inverse_calls"),
        "admissibility.classify_sequence.calls":
            calls("admissibility.classify_sequence.calls"),
        "admissibility.classify_sequence.self_s":
            g("admissibility.classify_sequence.self_s"),
        "admissibility.classify_sequence.undetermined_frac":
            _ratio(g("admissibility.classify_sequence.result"),
                   g("admissibility.classify_sequence.calls")),
        "admissibility.growth_check.self_s": g("admissibility.growth_check.self_s"),
        "admissibility.growth_check_inverse_form.self_s":
            g("admissibility.growth_check_inverse_form.self_s"),
        "admissibility.growth.inverse_calls": calls("admissibility.growth.inverse_calls"),
        "admissibility.logbump_transfer.self_s":
            g("admissibility.logbump_transfer.self_s"),
        "cli.main.self_s": g("cli.main.self_s"),
    }
    return {name: value * factor if unit(name) == "s" else value
            for name, value in metrics.items()}


def add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value
