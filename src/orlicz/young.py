"""Young functions, one-parameter families, and the built-in catalog.

A Young function here is a convex, strictly increasing map ``psi`` on
``[0, inf)`` with ``psi(0) = 0`` and ``psi(t) -> inf``.  The module keeps the
representation deliberately small: a :class:`YoungFamily` holds the formula
``psi(t, q)`` of a one-parameter family, and a :class:`YoungFunction` is that
family at one ``q``, built by ``family.make(q)``.  A formula lives only in its
family; a member carries no formula, label or parameters of its own.

Conventions
-----------
* Evaluation is ``float -> float`` through ``psi(t)``, and element-wise over a
  float64 array through ``psi.evaluate(ts)``.  Both map arithmetic overflow
  to ``inf`` — a larger-than-representable value is still a valid upper bound
  for every bracketing use in this package — and both reject a negative or
  non-finite ``t``.  A family has its scalar formula ``fn(t, q)`` and,
  optionally, the same formula over arrays, ``array_fn(t, q)``, broadcasting
  over both; each catalog formula is written once, generic over the log
  function (``math.log`` for ``fn``, ``np.log`` for ``array_fn``).  The norm
  solver takes the array path for simple functions with many atoms (see
  :mod:`orlicz.luxemburg`).
* ``psi.inverse(y)`` is the smallest double ``t`` with ``psi(t) >= y``.  It is
  found by :func:`_bisect`, which bisects the ordered int64 bit patterns of
  ``[0, inf]`` and so reaches two adjacent doubles in at most 63 evaluations
  at any scale, with no tolerance and no bracket to grow.  Monotonicity is
  the only structural assumption, so the same code serves every catalog
  member.  ``family.inverse_grid(ys, qs)`` runs the same steps in lockstep
  over a whole ``(y, q)`` grid, one numpy evaluation per step, so each cell
  is exact to the ulp of the array formula and within the array/scalar
  rounding of the scalar result; ``psi.inverse_array(ys)`` is its one-column
  case.  ``family.evaluate_grid(ts, qs)`` is one numpy pass of the array
  formula.  Without an array form, every array and grid method falls back to
  the scalar formula and the scalar solver cell by cell.  The limit
  diagnostics in :mod:`orlicz.admissibility` read these grids; the norm
  solver in :mod:`orlicz.luxemburg` runs :func:`_bisect` on the modular
  itself.
* Linear-growth members (``identity``, ``power`` at ``q = 1``) are admitted as
  pseudo-Young functions; :func:`validate` reports them via its ``strict``
  flag instead of rejecting them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
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


def _check_ys(label: str, ys) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    if ys.size and not (ys.min() >= 0.0 and ys.max() < math.inf):
        raise DomainError(f"{label}: inverse needs finite y >= 0, got values "
                          f"in [{float(ys.min())!r}, {float(ys.max())!r}]")
    return ys


# Positive doubles sort in the same order as their int64 bit patterns, so
# bisecting the patterns of [0, inf] reaches two adjacent doubles in at most
# this many halvings: the bit length of the pattern of inf.
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")
_INF_BITS = _I64.unpack(_F64.pack(math.inf))[0]
_STEPS = _INF_BITS.bit_length()


def _bisect(below: Callable[[float], bool], lo: float = 0.0,
            hi: float = math.inf) -> tuple[float, float]:
    """Adjacent doubles ``(a, b)`` in ``[lo, hi]`` where ``below`` turns false.

    ``below`` is a predicate that is true up to some point of ``[lo, hi]``
    and false from there on.  Each step halves the range of bit patterns
    between ``a`` and ``b``, so it ends in at most ``_STEPS`` evaluations at
    any scale, with no tolerance.  The endpoints are never evaluated: ``a``
    is ``lo`` or a point where ``below`` held, ``b`` is ``hi`` or a point
    where it failed.
    """
    i, j = _I64.unpack(_F64.pack(lo))[0], _I64.unpack(_F64.pack(hi))[0]
    while j - i > 1:
        mid = i + ((j - i) >> 1)
        if below(_F64.unpack(_I64.pack(mid))[0]):
            i = mid
        else:
            j = mid
    return _F64.unpack(_I64.pack(i))[0], _F64.unpack(_I64.pack(j))[0]


def _no_upper_bracket(label: str, y: float) -> BracketError:
    return BracketError(f"{label}: no upper bracket for inverse at y={y!r}; "
                        "psi(t) < y for every finite t")


def _bisect_inverse(psi: Callable[[np.ndarray], np.ndarray], ys: np.ndarray,
                    label: Callable[[int], str]) -> np.ndarray:
    """:meth:`YoungFunction.inverse` run in lockstep over a flat array of cells.

    ``psi(ts)`` evaluates each cell's member at the matching entry of
    ``ts``; ``label(cell)`` names the member in an error.  Every cell runs
    the steps of :func:`_bisect` from ``[0, inf]``, one evaluation over the
    whole array per step and ``_STEPS`` steps in all.  A cell whose bracket
    has closed (its midpoint is its lower end) keeps it.
    """
    lo = np.zeros(ys.shape, dtype=np.int64)
    hi = np.full(ys.shape, _INF_BITS, dtype=np.int64)
    with np.errstate(all="ignore"):
        for _ in range(_STEPS):
            mid = lo + ((hi - lo) >> 1)  # lo + hi overflows int64
            below = (psi(mid.view(float)) < ys) | (mid == lo)
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
    unbounded = np.flatnonzero(hi == _INF_BITS)
    if unbounded.size:
        raise _no_upper_bracket(label(unbounded[0]), float(ys[unbounded[0]]))
    return np.where(ys == 0.0, 0.0, hi.view(float))  # y = 0 maps to 0


@dataclass(frozen=True)
class YoungFunction:
    """One member ``psi_q`` of a :class:`YoungFamily`: its formula at a fixed ``q``.

    Build one with ``family.make(q)``, which checks ``q``.  The formula is
    evaluated only for ``t > 0``; ``t = 0`` short-circuits to ``0.0`` so the
    zero axiom holds exactly regardless of the formula.
    """

    family: YoungFamily
    q: float

    @property
    def label(self) -> str:
        """``family[k=v,...,q=...]`` from the family's parameters and ``q``."""
        params = {**self.family.params, "q": self.q}
        return f"{self.family.label}[{','.join(f'{k}={v:g}' for k, v in params.items())}]"

    def __call__(self, t: float) -> float:
        t = float(t)
        if math.isnan(t) or math.isinf(t) or t < 0:
            raise DomainError(f"{self.label}: t must be finite and >= 0, got {t!r}")
        if t == 0.0:
            return 0.0
        try:
            return float(self.family.fn(t, self.q))
        except OverflowError:
            return math.inf

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        """``psi`` element by element over a float64 array.

        Same semantics as ``__call__``: a negative or non-finite entry raises
        :class:`DomainError`, ``psi(0) = 0`` exactly, and overflow gives
        ``inf``.  Without the family's ``array_fn`` it runs ``__call__`` per
        element.
        """
        ts = np.asarray(ts, dtype=float)
        if not ts.size:
            return np.zeros_like(ts)
        lo, hi = ts.min(), ts.max()
        if not (lo >= 0.0 and hi < math.inf):
            raise DomainError(
                f"{self.label}: t must be finite and >= 0, got values in [{lo!r}, {hi!r}]")
        # Python's float pow raises the FPU overflow flag on its way to
        # OverflowError, so the element-by-element fallback needs this too.
        with np.errstate(over="ignore", under="ignore"):
            if self.family.array_fn is None:
                return np.vectorize(self, otypes=[float])(ts)
            out = self.family.array_fn(ts, self.q)
        return np.where(ts == 0.0, 0.0, out) if lo == 0.0 else out

    def inverse(self, y: float) -> float:
        """The smallest double ``t`` with ``psi(t) >= y``: the root of
        ``psi(t) = y`` to the ulp, by :func:`_bisect` over ``[0, inf]``.

        At most ``_STEPS`` (63) evaluations of ``psi`` at any scale of ``y``;
        an overflowing evaluation counts as ``inf``.  :class:`BracketError`
        when ``psi`` stays below ``y`` on every finite ``t``.
        """
        y = float(y)
        if math.isnan(y) or math.isinf(y) or y < 0:
            raise DomainError(f"{self.label}: inverse needs finite y >= 0, got {y!r}")
        if y == 0.0:
            return 0.0
        t = _bisect(lambda t: self(t) < y)[1]
        if t == math.inf:
            raise _no_upper_bracket(self.label, y)
        return t

    def inverse_array(self, ys: np.ndarray) -> np.ndarray:
        """:meth:`inverse` element by element over a float64 array: the
        one-column :meth:`YoungFamily.inverse_grid` at this ``q``."""
        return self.family.inverse_grid(ys, (self.q,)).reshape(np.shape(ys))


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


def default_validation_grid() -> tuple[float, ...]:
    """0 plus 257 geometrically spaced points on ``[1e-6, 1e3]``."""
    return (0.0, *np.geomspace(1e-6, 1e3, 257).tolist())


# Midpoint convexity is probed on index pairs at these strides, which keeps the
# scan near-linear in the grid size while still mixing short and long chords.
_CONVEXITY_STRIDES = (1, 2, 4, 16, 64, 256)
# Relative slack of midpoint convexity, and the growth test psi(_T_BIG) > _Y_BIG.
_CONVEXITY_TOL, _T_BIG, _Y_BIG = 1e-12, 1e8, 1e6


def validate(psi: YoungFunction, grid: tuple[float, ...] | None = None) -> ValidationReport:
    """Check the Young axioms on a grid and report violations as data.

    Checked: ``psi(0) = 0`` exactly; strict increase between consecutive grid
    points; midpoint convexity along stride pairs within ``1e-12``
    (relative); growth ``psi(1e8) > 1e6``.  Pairs whose values underflow
    to 0 or overflow to inf are skipped — strictness cannot be resolved in
    double precision there.  The ``strict`` flag reports superlinear growth
    (``psi(1e8) > 2 * psi(5e7)`` beyond rounding); linear-growth
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
        v0 = float(psi.family.fn(0.0, psi.q))
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
            if vm > bound + _CONVEXITY_TOL * max(1.0, bound):
                violations.append(
                    Violation("convexity", (s, 0.5 * (s + t), t), (vs, vm, vt)))
                done = True
                break
        if done:
            break

    v_big = psi(_T_BIG)
    if not v_big > _Y_BIG:
        violations.append(Violation("growth", (_T_BIG,), (v_big,)))

    v_half = psi(0.5 * _T_BIG)
    if math.isinf(v_big) or math.isinf(v_half):
        strict = True
    elif v_half == 0.0:
        strict = False
    else:
        strict = v_big > (2.0 + 1e-9) * v_half

    return ValidationReport(tuple(violations), strict)


@dataclass(frozen=True)
class YoungFamily:
    """A one-parameter family of Young functions ``psi_q``.

    ``fn(t, q)`` is the formula of the member at ``q`` for a float ``t > 0``;
    ``array_fn(t, q)`` is the same formula over float64 arrays, broadcasting
    over both ``t`` and ``q``.  Without ``array_fn`` the array and grid
    methods fall back to ``fn`` cell by cell.  ``params`` are the numeric
    parameters that fix the family (the keys of its spec), and they label
    its members.
    ``q_min`` is the smallest admissible ``q``; the sentinel ``0.0`` means
    any ``q > 0`` is allowed.
    """

    label: str
    fn: Callable[[float, float], float]
    params: dict
    q_min: float
    array_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def admits(self, q: float) -> bool:
        """Whether ``q`` lies in the family's domain."""
        return q >= self.q_min if self.q_min > 0.0 else q > 0.0

    def _check_q(self, q: float) -> float:
        q = float(q)
        if math.isnan(q) or math.isinf(q):
            raise DomainError(f"{self.label}: q must be finite, got {q!r}")
        if not self.admits(q):
            bound = f">= {self.q_min}" if self.q_min > 0.0 else "> 0"
            raise DomainError(f"{self.label} requires q {bound}, got {q!r}")
        return q

    def make(self, q: float) -> YoungFunction:
        """The member at ``q``, after checking that the family admits it."""
        return YoungFunction(self, self._check_q(q))

    def evaluate_grid(self, ts, qs) -> np.ndarray:
        """``psi_q(t)`` for every ``t`` in ``ts`` (rows) and ``q`` in ``qs``
        (columns), with the semantics of :meth:`YoungFunction.evaluate`."""
        qs = [self._check_q(q) for q in qs]
        ts = np.asarray(ts, dtype=float)
        if self.array_fn is None:
            return np.array([YoungFunction(self, q).evaluate(ts) for q in qs]).reshape(
                len(qs), ts.size).T
        if ts.size and not (ts.min() >= 0.0 and ts.max() < math.inf):
            raise DomainError(f"{self.label}: t must be finite and >= 0, got values "
                              f"in [{float(ts.min())!r}, {float(ts.max())!r}]")
        col = ts.reshape(-1, 1)
        with np.errstate(over="ignore", under="ignore"):
            out = np.broadcast_to(self.array_fn(col, np.array([qs])), (ts.size, len(qs)))
        return np.where(col == 0.0, 0.0, out)

    def inverse_grid(self, ys, qs) -> np.ndarray:
        """``psi_q^{-1}(y)`` for every ``y`` in ``ys`` (rows) and ``q`` in
        ``qs`` (columns): one batched bisection over the whole grid, with
        the steps, errors and results of :meth:`YoungFunction.inverse` cell
        by cell."""
        qs = [self._check_q(q) for q in qs]
        ys = _check_ys(self.label, ys).ravel()
        if self.array_fn is None:
            return np.array([[YoungFunction(self, q).inverse(y) for q in qs]
                             for y in ys.tolist()]).reshape(ys.size, len(qs))
        q_cells = np.tile(qs, ys.size)
        return _bisect_inverse(
            lambda ts: self.array_fn(ts, q_cells), np.repeat(ys, len(qs)),
            lambda cell: YoungFunction(self, float(q_cells[cell])).label,
        ).reshape(ys.size, len(qs))

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
    """The ``c > 0`` whose n-fold iterated log of ``c + 1`` equals 1: ``c + 1``
    is ``exp`` applied n times to 1."""
    return _iter_exp(1.0, n) - 1.0


def _check_p(name: str, p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise FamilySpecError(f"{name} requires p >= 1, got {p!r}")
    return p


def _check_N(name: str, N: int) -> int:
    N = int(N)
    if N < 1:
        raise FamilySpecError(f"{name} requires integer N >= 1, got {N!r}")
    if N > 3:
        raise FamilySpecError(
            f"{name} anchor for N={N} is not representable in double precision (N <= 3)")
    return N


def power_family() -> YoungFamily:
    """``t^q`` for ``q >= 1``."""
    def fn(t, q):
        return t ** q
    return YoungFamily("power", fn, {}, q_min=1.0, array_fn=fn)


def logbump_family(p: float = 1.0) -> YoungFamily:
    """``t^p * log(e - 1 + t)^q`` with ``p >= 1`` fixed and any ``q > 0``.

    The shift ``e - 1`` pins ``psi_q(1) = 1`` for every ``q``.
    """
    p = _check_p("logbump", p)

    def fn(t, q, log: Callable = math.log):
        return t ** p * log(E_MINUS_1 + t) ** q
    return YoungFamily("logbump", fn, {"p": p}, q_min=0.0, array_fn=partial(fn, log=np.log))


def iterlog_family(N: int = 1, p: float = 1.0) -> YoungFamily:
    """``t^p * (N-fold iterated log of (c + t))^q`` with the anchor ``c``
    solved so that ``psi_q(1) = 1`` independently of ``q``.

    Doubles cannot represent the anchor beyond ``N = 3``.
    """
    N, p = _check_N("iterlog", N), _check_p("iterlog", p)
    c = _anchor_constant(N)

    def fn(t, q, log: Callable = math.log):
        return t ** p * _iter_log(c + t, N, log) ** q
    return YoungFamily("iterlog", fn, {"N": N, "p": p}, q_min=0.0,
                       array_fn=partial(fn, log=np.log))


def addie_family(N: int = 1, p: float = 1.0) -> YoungFamily:
    """``(t * prod_j L_j(c_j + t))^p * L_N(c_N + t)^q`` where ``L_j`` is the
    j-fold iterated log and each ``c_j`` is anchored so ``L_j(c_j + 1) = 1``.

    With those anchors every factor equals 1 at ``t = 1``, so ``psi_q(1)`` does
    not depend on ``q``.
    """
    N, p = _check_N("addie", N), _check_p("addie", p)
    cs = tuple(_anchor_constant(j) for j in range(1, N + 1))

    def fn(t, q, log: Callable = math.log):
        base = t
        for j, c in enumerate(cs, start=1):
            base = base * _iter_log(c + t, j, log)  # not *=: t may be an array
        return base ** p * _iter_log(cs[-1] + t, N, log) ** q
    return YoungFamily("addie", fn, {"N": N, "p": p}, q_min=0.0,
                       array_fn=partial(fn, log=np.log))


def sinpiecewise_family() -> YoungFamily:
    """Piecewise family whose middle-branch exponent ``2 + sin q`` oscillates.

    ``psi_q(t) = t^q / 2`` on ``[0, 1/2]``;
    ``(t^q + (2t - 1)^(2 + sin q)) / 2`` on ``(1/2, 1)``;
    ``(t^q + (2t - 1)^3) / 2`` for ``t >= 1``.  Convex for every ``q >= 1``
    since each branch is convex and one-sided derivatives only jump upward.
    """
    def fn(t, q):
        if t <= 0.5:
            return 0.5 * t ** q
        if t < 1.0:
            return 0.5 * (t ** q + (2.0 * t - 1.0) ** (2.0 + math.sin(q)))
        return 0.5 * (t ** q + (2.0 * t - 1.0) ** 3)

    def array_fn(t, q):
        # The bump is 0 on [0, 1/2], where 0.5 * (t^q + 0) == 0.5 * t^q.
        bump = np.maximum(2.0 * t - 1.0, 0.0)
        return 0.5 * (t ** q + bump ** np.where(t < 1.0, 2.0 + np.sin(q), 3.0))
    return YoungFamily("sinpiecewise", fn, {}, q_min=1.0, array_fn=array_fn)


def powerlog_e_family(p: float = 1.0) -> YoungFamily:
    """``t^p * log(e + t)^q``.  The log factor exceeds 1 for every ``t > 0``,
    so the family blows up pointwise as ``q`` grows and no normalization
    anchor exists."""
    p = _check_p("powerlog_e", p)

    def fn(t, q, log: Callable = math.log):
        return t ** p * log(math.e + t) ** q
    return YoungFamily("powerlog_e", fn, {"p": p}, q_min=0.0,
                       array_fn=partial(fn, log=np.log))


def identity_family() -> YoungFamily:
    """The pseudo-Young function ``t -> t`` for every ``q``.

    Usable wherever a comparison function is required; flagged non-strict by
    :func:`validate` because its growth is exactly linear.
    """
    def fn(t, q):
        return t
    return YoungFamily("identity", fn, {}, q_min=0.0, array_fn=fn)


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
