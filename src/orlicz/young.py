"""Young functions, one-parameter families, and the built-in catalog.

A Young function here is a convex, strictly increasing map ``psi`` on
``[0, inf)`` with ``psi(0) = 0`` and ``psi(t) -> inf``.  The module keeps the
representation deliberately small: a :class:`YoungFunction` wraps a scalar
callable together with a label and its parameters, and a :class:`YoungFamily`
produces one member per sweep parameter ``q``.

Conventions
-----------
* Evaluation is ``float -> float`` through ``psi(t)``, and element-wise over a
  float64 array through ``psi.evaluate(ts)``.  Both map arithmetic overflow
  to ``inf`` — a larger-than-representable value is still a valid upper bound
  for every bracketing use in this package — and both reject a negative or
  non-finite ``t``.  Each catalog formula is written once, generic over the
  log function: ``math.log`` for a float, ``np.log`` for an array.  The norm
  solver takes the array path for simple functions with many atoms (see
  :mod:`orlicz.luxemburg`).
* Inverses are computed by exponential bracket growth from ``[0, 1]`` followed
  by plain bisection.  Monotonicity is the only structural assumption, so the
  same code serves every catalog member.
* Linear-growth members (``identity``, ``power`` at ``q = 1``) are admitted as
  pseudo-Young functions; :func:`validate` reports them via its ``strict``
  flag instead of rejecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

E_MINUS_1 = math.e - 1.0

__all__ = [
    "E_MINUS_1",
    "BracketError",
    "DomainError",
    "FamilySpecError",
    "ValidationReport",
    "Violation",
    "YoungFamily",
    "YoungFunction",
    "addie_family",
    "default_validation_grid",
    "identity_family",
    "iterlog_family",
    "logbump_family",
    "make_family",
    "power_family",
    "powerlog_e_family",
    "sinpiecewise_family",
    "validate",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FamilySpecError(ValueError):
    """A family descriptor string does not name a valid built-in family."""


class BracketError(ArithmeticError):
    """Root bracketing failed; the message carries the last bracket tried."""


def _as_float(name: str, x: float, *, minimum: float | None = None,
              strict: bool = False) -> float:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if minimum is not None:
        if strict and not x > minimum:
            raise DomainError(f"{name} must be > {minimum}, got {x!r}")
        if not strict and x < minimum:
            raise DomainError(f"{name} must be >= {minimum}, got {x!r}")
    return x


@dataclass(frozen=True)
class YoungFunction:
    """A single Young (or pseudo-Young) function.

    ``fn`` is evaluated only for ``t > 0``; ``t = 0`` short-circuits to ``0.0``
    so the zero axiom holds exactly regardless of the formula.  ``array_fn``
    is the same formula over a float64 array; without it :meth:`evaluate`
    falls back to one ``__call__`` per element.
    """

    fn: Callable[[float], float]
    label: str
    params: dict = field(default_factory=dict)
    strict: bool = True
    array_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t: float) -> float:
        t = float(t)
        if math.isnan(t) or math.isinf(t) or t < 0:
            raise DomainError(f"{self.label}: t must be finite and >= 0, got {t!r}")
        if t == 0.0:
            return 0.0
        try:
            return float(self.fn(t))
        except OverflowError:
            return math.inf

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        """``psi`` element by element over a float64 array.

        Same semantics as ``__call__``: a negative or non-finite entry raises
        :class:`DomainError`, ``psi(0) = 0`` exactly, and overflow gives
        ``inf``.
        """
        ts = np.asarray(ts, dtype=float)
        if not ts.size:
            return np.zeros_like(ts)
        lo, hi = ts.min(), ts.max()
        if not (lo >= 0.0 and hi < math.inf):
            raise DomainError(
                f"{self.label}: t must be finite and >= 0, got values in [{lo!r}, {hi!r}]")
        if self.array_fn is None:
            return np.vectorize(self, otypes=[float])(ts)
        with np.errstate(over="ignore", under="ignore"):
            out = self.array_fn(ts)
        return np.where(ts == 0.0, 0.0, out) if lo == 0.0 else out

    def inverse(self, y: float, rtol: float = 1e-12, max_iter: int = 200) -> float:
        """Solve ``psi(t) = y`` for ``t >= 0`` by bracketing and bisection.

        The bracket starts at ``[0, 1]`` and doubles its upper end until it
        encloses the root (overflowing evaluations count as ``inf`` and stop
        the growth).  Bisection then narrows to relative width ``rtol``.  The
        returned value is the upper end of the final bracket, which makes the
        result monotone in ``y`` along a shared bisection tree.
        """
        y = float(y)
        if math.isnan(y) or math.isinf(y) or y < 0:
            raise DomainError(f"{self.label}: inverse needs finite y >= 0, got {y!r}")
        if y == 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        doublings = 0
        while self(hi) < y:
            hi *= 2.0
            doublings += 1
            if doublings > 200:
                raise BracketError(
                    f"{self.label}: no upper bracket for inverse at y={y!r}; "
                    f"psi({hi!r}) = {self(hi)!r}")
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if self(mid) < y:
                lo = mid
            else:
                hi = mid
            if hi - lo <= rtol * hi:
                break
        return hi


@dataclass(frozen=True)
class Violation:
    """One failed axiom with the witnessing grid points and values."""

    axiom: str
    points: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    strict: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def default_validation_grid(n: int = 257, lo: float = 1e-6,
                            hi: float = 1e3) -> tuple[float, ...]:
    """0 plus ``n`` geometrically spaced points on ``[lo, hi]``."""
    return (0.0, *(float(t) for t in np.geomspace(lo, hi, n)))


# Midpoint convexity is probed on index pairs at these strides, which keeps the
# scan near-linear in the grid size while still mixing short and long chords.
_CONVEXITY_STRIDES = (1, 2, 4, 16, 64, 256)


def validate(psi: YoungFunction, grid: tuple[float, ...] | None = None,
             convexity_tol: float = 1e-12, t_big: float = 1e8,
             y_big: float = 1e6) -> ValidationReport:
    """Check the Young axioms on a grid and report violations as data.

    Checked: ``psi(0) = 0`` exactly; strict increase between consecutive grid
    points; midpoint convexity along stride pairs within ``convexity_tol``
    (relative); growth ``psi(t_big) > y_big``.  Pairs whose values underflow
    to 0 or overflow to inf are skipped — strictness cannot be resolved in
    double precision there.  The ``strict`` flag reports superlinear growth
    (``psi(t_big) > 2 * psi(t_big / 2)`` beyond rounding); linear-growth
    members come back ``strict=False`` without that being a violation.
    """
    if grid is None:
        grid = default_validation_grid()
    pts = [float(t) for t in grid]
    if len(pts) < 3 or any(t < 0 for t in pts) or any(
            a >= b for a, b in zip(pts, pts[1:])):
        raise DomainError("grid must be >= 3 strictly increasing points >= 0")

    violations: list[Violation] = []
    vals = [psi(t) for t in pts]

    # Probe the raw formula: the evaluation wrapper pins psi(0) to 0, so only
    # fn itself can reveal a broken origin.
    try:
        v0 = float(psi.fn(0.0))
    except Exception:
        v0 = math.nan
    if v0 != 0.0:
        violations.append(Violation("zero", (0.0,), (v0,)))

    for (t1, v1), (t2, v2) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if math.isinf(v1):
            continue  # already beyond double range
        if v2 == 0.0 and t2 > 0.0:
            continue  # underflow near zero
        if v2 <= v1:
            violations.append(Violation("increasing", (t1, t2), (v1, v2)))
            break

    for stride in _CONVEXITY_STRIDES:
        done = False
        for i in range(len(pts) - stride):
            s, t = pts[i], pts[i + stride]
            vs, vt = vals[i], vals[i + stride]
            if math.isinf(vs) or math.isinf(vt):
                continue
            bound = 0.5 * (vs + vt)
            vm = psi(0.5 * (s + t))
            if vm > bound + convexity_tol * max(1.0, bound):
                violations.append(
                    Violation("convexity", (s, 0.5 * (s + t), t), (vs, vm, vt)))
                done = True
                break
        if done:
            break

    v_big = psi(t_big)
    if not v_big > y_big:
        violations.append(Violation("growth", (t_big,), (v_big,)))

    v_half = psi(0.5 * t_big)
    if math.isinf(v_big) or math.isinf(v_half):
        strict = True
    elif v_half == 0.0:
        strict = False
    else:
        strict = v_big > (2.0 + 1e-9) * v_half

    return ValidationReport(tuple(violations), strict)


@dataclass(frozen=True)
class YoungFamily:
    """A one-parameter family ``q -> YoungFunction``.

    ``q_min`` is the smallest admissible ``q``; the sentinel ``0.0`` means any
    ``q > 0`` is allowed.
    """

    label: str
    make_fn: Callable[[float], YoungFunction]
    params: dict
    q_min: float

    def make(self, q: float) -> YoungFunction:
        q = _as_float(f"{self.label}: q", q)
        if self.q_min > 0.0:
            if q < self.q_min:
                raise DomainError(f"{self.label} requires q >= {self.q_min}, got {q!r}")
        elif q <= 0.0:
            raise DomainError(f"{self.label} requires q > 0, got {q!r}")
        return self.make_fn(q)

    @property
    def schedule_q0(self) -> float:
        """Default starting point for q-schedules over this family."""
        return max(self.q_min, 1.0)


def _iter_log(x: float, n: int, log: Callable = math.log) -> float:
    for _ in range(n):
        x = log(x)
    return x


def _iter_exp(x: float, n: int) -> float:
    for _ in range(n):
        x = math.exp(x)
    return x


def _anchor_constant(n: int) -> float:
    """The ``c > 0`` whose n-fold iterated log of ``c + 1`` equals 1.

    Solved by bracket growth plus bisection on ``x = c + 1``; the lower end
    is where the iterated log vanishes.
    """
    lo = _iter_exp(1.0, n - 1)  # L_n(lo) == 0
    hi = max(2.0 * lo, 2.0)
    doublings = 0
    while _iter_log(hi, n) < 1.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200 or math.isinf(hi):
            raise BracketError(f"iterated-log anchor for n={n} exceeds double range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _iter_log(mid, n) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return hi - 1.0


def power_family() -> YoungFamily:
    """``t^q`` for ``q >= 1``."""
    def make(q: float) -> YoungFunction:
        def fn(t: float, q: float = q) -> float:
            return t ** q
        return YoungFunction(fn, f"power[q={q:g}]", {"q": q}, array_fn=fn)
    return YoungFamily("power", make, {}, q_min=1.0)


def logbump_family(p: float = 1.0) -> YoungFamily:
    """``t^p * log(e - 1 + t)^q`` with ``p >= 1`` fixed and any ``q > 0``.

    The shift ``e - 1`` pins ``psi_q(1) = 1`` for every ``q``.
    """
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise FamilySpecError(f"logbump requires p >= 1, got {p!r}")

    def make(q: float) -> YoungFunction:
        def fn(t: float, p: float = p, q: float = q, log: Callable = math.log) -> float:
            return t ** p * log(E_MINUS_1 + t) ** q
        return YoungFunction(fn, f"logbump[p={p:g},q={q:g}]", {"p": p, "q": q},
                             array_fn=partial(fn, log=np.log))
    return YoungFamily("logbump", make, {"p": p}, q_min=0.0)


def iterlog_family(N: int = 1, p: float = 1.0) -> YoungFamily:
    """``t^p * (N-fold iterated log of (c + t))^q`` with the anchor ``c``
    solved so that ``psi_q(1) = 1`` independently of ``q``.

    Doubles cannot represent the anchor beyond ``N = 3``.
    """
    N = int(N)
    p = float(p)
    if N < 1:
        raise FamilySpecError(f"iterlog requires integer N >= 1, got {N!r}")
    if N > 3:
        raise FamilySpecError(
            f"iterlog anchor for N={N} is not representable in double precision (N <= 3)")
    if not math.isfinite(p) or p < 1.0:
        raise FamilySpecError(f"iterlog requires p >= 1, got {p!r}")
    c = _anchor_constant(N)

    def make(q: float) -> YoungFunction:
        def fn(t: float, p: float = p, q: float = q, c: float = c, N: int = N,
               log: Callable = math.log) -> float:
            return t ** p * _iter_log(c + t, N, log) ** q
        return YoungFunction(
            fn, f"iterlog[N={N},p={p:g},q={q:g}]", {"N": N, "p": p, "q": q, "c": c},
            array_fn=partial(fn, log=np.log))
    return YoungFamily("iterlog", make, {"N": N, "p": p, "c": c}, q_min=0.0)


def addie_family(N: int = 1, p: float = 1.0) -> YoungFamily:
    """``(t * prod_j L_j(c_j + t))^p * L_N(c_N + t)^q`` where ``L_j`` is the
    j-fold iterated log and each ``c_j`` is anchored so ``L_j(c_j + 1) = 1``.

    With those anchors every factor equals 1 at ``t = 1``, so ``psi_q(1)`` does
    not depend on ``q``.
    """
    N = int(N)
    p = float(p)
    if N < 1:
        raise FamilySpecError(f"addie requires integer N >= 1, got {N!r}")
    if N > 3:
        raise FamilySpecError(
            f"addie anchor for N={N} is not representable in double precision (N <= 3)")
    if not math.isfinite(p) or p < 1.0:
        raise FamilySpecError(f"addie requires p >= 1, got {p!r}")
    cs = tuple(_anchor_constant(j) for j in range(1, N + 1))

    def make(q: float) -> YoungFunction:
        def fn(t: float, p: float = p, q: float = q, cs: tuple = cs, N: int = N,
               log: Callable = math.log) -> float:
            base = t
            for j, c in enumerate(cs, start=1):
                base = base * _iter_log(c + t, j, log)  # not *=: t may be an array
            return base ** p * _iter_log(cs[-1] + t, N, log) ** q
        return YoungFunction(
            fn, f"addie[N={N},p={p:g},q={q:g}]", {"N": N, "p": p, "q": q, "anchors": cs},
            array_fn=partial(fn, log=np.log))
    return YoungFamily("addie", make, {"N": N, "p": p, "anchors": cs}, q_min=0.0)


def sinpiecewise_family() -> YoungFamily:
    """Piecewise family whose middle-branch exponent ``2 + sin q`` oscillates.

    ``psi_q(t) = t^q / 2`` on ``[0, 1/2]``;
    ``(t^q + (2t - 1)^(2 + sin q)) / 2`` on ``(1/2, 1)``;
    ``(t^q + (2t - 1)^3) / 2`` for ``t >= 1``.  Convex for every ``q >= 1``
    since each branch is convex and one-sided derivatives only jump upward.
    """
    def make(q: float) -> YoungFunction:
        s = 2.0 + math.sin(q)

        def fn(t: float, q: float = q, s: float = s) -> float:
            if t <= 0.5:
                return 0.5 * t ** q
            if t < 1.0:
                return 0.5 * (t ** q + (2.0 * t - 1.0) ** s)
            return 0.5 * (t ** q + (2.0 * t - 1.0) ** 3)

        def array_fn(t: np.ndarray, q: float = q, s: float = s) -> np.ndarray:
            # The bump is 0 on [0, 1/2], where 0.5 * (t^q + 0) == 0.5 * t^q.
            bump = np.maximum(2.0 * t - 1.0, 0.0)
            return 0.5 * (t ** q + bump ** np.where(t < 1.0, s, 3.0))
        return YoungFunction(
            fn, f"sinpiecewise[q={q:g}]", {"q": q, "bump_exponent": s},
            array_fn=array_fn)
    return YoungFamily("sinpiecewise", make, {}, q_min=1.0)


def powerlog_e_family(p: float = 1.0) -> YoungFamily:
    """``t^p * log(e + t)^q``.  The log factor exceeds 1 for every ``t > 0``,
    so the family blows up pointwise as ``q`` grows and no normalization
    anchor exists."""
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise FamilySpecError(f"powerlog_e requires p >= 1, got {p!r}")

    def make(q: float) -> YoungFunction:
        def fn(t: float, p: float = p, q: float = q, log: Callable = math.log) -> float:
            return t ** p * log(math.e + t) ** q
        return YoungFunction(fn, f"powerlog_e[p={p:g},q={q:g}]", {"p": p, "q": q},
                             array_fn=partial(fn, log=np.log))
    return YoungFamily("powerlog_e", make, {"p": p}, q_min=0.0)


def identity_family() -> YoungFamily:
    """The pseudo-Young function ``t -> t`` for every ``q``.

    Usable wherever a comparison function is required; flagged non-strict by
    :func:`validate` because its growth is exactly linear.
    """
    def make(q: float) -> YoungFunction:
        def fn(t: float) -> float:
            return t
        return YoungFunction(fn, "identity", {}, strict=False, array_fn=fn)
    return YoungFamily("identity", make, {}, q_min=0.0)


_CATALOG: dict[str, tuple[tuple[str, ...], Callable[..., YoungFamily]]] = {
    "power": ((), lambda: power_family()),
    "logbump": (("p",), lambda p=1.0: logbump_family(p)),
    "iterlog": (("p", "N"), lambda p=1.0, N=1: iterlog_family(N, p)),
    "addie": (("p", "N"), lambda p=1.0, N=1: addie_family(N, p)),
    "sinpiecewise": ((), lambda: sinpiecewise_family()),
    "powerlog_e": (("p",), lambda p=1.0: powerlog_e_family(p)),
    "identity": ((), lambda: identity_family()),
}


def make_family(spec: str) -> YoungFamily:
    """Build a catalog family from a descriptor string.

    Grammar: ``name`` or ``name:key=value,key=value`` with keys ``p`` (real,
    >= 1) and ``N`` (integer, >= 1).  The sweep parameter ``q`` is never part
    of the descriptor.  Anything else fails with a diagnostic.
    """
    if not isinstance(spec, str) or not spec:
        raise FamilySpecError(f"family spec must be a non-empty string, got {spec!r}")
    name, sep, rest = spec.partition(":")
    name = name.strip()
    if name not in _CATALOG:
        raise FamilySpecError(
            f"unknown family {name!r}; known: {', '.join(sorted(_CATALOG))}")
    allowed, builder = _CATALOG[name]
    kwargs: dict[str, float | int] = {}
    if sep:
        if not rest:
            raise FamilySpecError(f"trailing ':' in family spec {spec!r}")
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not value.strip():
                raise FamilySpecError(f"expected key=value, got {item!r} in {spec!r}")
            if key not in allowed:
                raise FamilySpecError(f"family {name!r} does not take key {key!r}")
            if key in kwargs:
                raise FamilySpecError(f"duplicate key {key!r} in {spec!r}")
            text = value.strip()
            if key == "N":
                try:
                    kwargs["N"] = int(text)
                except ValueError:
                    raise FamilySpecError(f"N must be an integer, got {text!r}") from None
            else:
                try:
                    kwargs["p"] = float(text)
                except ValueError:
                    raise FamilySpecError(f"p must be a real number, got {text!r}") from None
    return builder(**kwargs)
