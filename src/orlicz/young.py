"""Young functions, one-parameter families, and the built-in catalog.

A Young function here is a convex, strictly increasing map ``psi`` on
``[0, inf)`` with ``psi(0) = 0`` and ``psi(t) -> inf``.  The module keeps the
representation deliberately small: a :class:`YoungFamily` holds the formula
``psi(t, q)`` of a one-parameter family, and a :class:`YoungFunction` is that
family at one ``q``, built by ``family.make(q)``.  A formula lives only in its
family; a member carries no formula, label or parameters of its own.

Conventions
-----------
* A member is scalar: ``psi(t)`` maps a float to a float, maps arithmetic
  overflow to ``inf`` — a larger-than-representable value is still a valid
  upper bound for every bracketing use in this package — pins ``psi(0)`` to
  exactly 0, and rejects a negative or non-finite ``t``.  Arrays are the
  family's: ``family.evaluate_grid(ts, qs)`` and ``family.inverse_grid(ys,
  qs)`` with the same rules, checked once per grid.  A family has its
  scalar formula ``fn(t, q)`` and, optionally, the same formula over arrays,
  ``array_fn(t, q)``, broadcasting over both, which runs the same
  operations.  The four log families (``logbump``, ``iterlog``, ``addie``,
  ``powerlog_e``) share one builder, :func:`_chain_family`: their log factor
  is an anchored ``log1p`` chain, never ``log(c + t)``, so a member's
  relative error is a few ulp times ``1 + |q log L|`` at any ``q``, N = 3
  included.  Two unchecked kernels of the family hold the zero rule, the
  overflow rule and the fallback for a family without an array form:
  ``family._psi(t, q)`` for one float and ``family._psi_array(ts, qs)`` for
  arrays, which runs
  ``family._array_formula()``, that is ``array_fn`` or, without one, ``_psi``
  vectorized.  The public calls check their input and call a kernel, and
  ``inverse`` and the grid solvers call the kernels directly.  The norm
  solver's loop over the atoms of a small simple function calls ``fn``
  itself and states the zero and overflow rules for its terms: a call of
  ``_psi`` per atom was a large share of a probe.  For simple functions with
  many atoms it takes the array path through ``_psi_array`` (see
  :mod:`orlicz.luxemburg`).
* numpy is imported where an array is first built, never at module level, so
  building families and members and the scalar paths (``psi(t)``,
  ``psi.inverse(y)``, and the norms of small simple functions) never load
  it.
* ``psi.inverse(y)`` is the smallest double ``t`` with ``psi(t) >= y``.  It is
  found by :func:`_root`, an ITP search over the ordered int64 bit patterns
  of ``[0, inf]`` that reaches two adjacent doubles in at most 67
  evaluations at any scale (about 10 for a norm, whose search starts at
  ``||f||_inf``), with no tolerance and no bracket to grow.  The exact test
  ``psi(t) < y`` decides every step, so monotonicity is the only
  structural assumption for the result and the same code serves every
  catalog member; ``log y - log psi(t)`` only places
  the probes.  ``family.inverse_grid(ys, qs)`` fixes one bit of every
  cell's pattern per step, from the top bit down, in lockstep over a whole
  ``(y, q)`` grid: 63 steps of one ``_array_formula`` pass each, so each cell
  is exact to the ulp of the array formula and within the array/scalar
  rounding of the scalar result.  ``family.evaluate_grid(ts, qs)`` is one
  ``_psi_array`` pass.  A family without an array form goes through the
  same grid methods and the same lockstep walk over its vectorized scalar
  formula.  The limit diagnostics in :mod:`orlicz.admissibility` read these
  grids; the norm solver in :mod:`orlicz.luxemburg` runs :func:`_root` on
  the modular itself.
* Every member must be a Young function; :class:`YoungFamily` says where
  that is checked.  Linear-growth members (``identity``, ``power`` at
  ``q = 1``) are convex but not strictly, and pass as pseudo-Young functions.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    import numpy as np

E_MINUS_1 = math.e - 1.0

__all__ = [
    "BracketError",
    "DomainError",
    "FamilySpecError",
    "YoungFamily",
    "YoungFunction",
    "addie_family",
    "identity_family",
    "iterlog_family",
    "logbump_family",
    "make_family",
    "power_family",
    "powerlog_e_family",
    "sinpiecewise_family",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FamilySpecError(ValueError):
    """A family descriptor string does not name a valid built-in family."""


class BracketError(ArithmeticError):
    """Root bracketing failed; the message carries the last bracket tried."""


def _float(name: str, x: float, owner: YoungFamily | YoungFunction | None = None,
           error: type[ValueError] = DomainError) -> float:
    """``float(x)``.  An int beyond the double range is an input error, as
    ``inf`` is in the same place: ``error`` naming ``name``, after the label
    of ``owner`` when one is given."""
    try:
        return float(x)
    except OverflowError:  # an int beyond the doubles
        raise error(f"{_where(owner)}{name} is beyond the double range") from None


def _where(owner: YoungFamily | YoungFunction | None) -> str:
    return "" if owner is None else f"{owner.label}: "


def _positive(name: str, x: float) -> float:
    """``x`` as a float, after checking that it is positive and finite."""
    x = _float(name, x)
    if not 0.0 < x < math.inf:  # both comparisons are false for NaN
        raise DomainError(f"{name} must be positive and finite, got {x!r}")
    return x


def _nonneg(name: str, x: float, owner: YoungFamily | YoungFunction | None = None) -> float:
    """``x`` as a float, after checking that it is finite and ``>= 0``; the
    message names ``name`` as :func:`_float` does."""
    x = _float(name, x, owner)
    if not 0.0 <= x < math.inf:  # both comparisons are false for NaN
        raise DomainError(f"{_where(owner)}{name} must be finite and >= 0, got {x!r}")
    return x


def _check_array(label: str, name: str, xs) -> tuple[np.ndarray, bool]:
    """``xs`` as a float64 array, and whether it holds a 0, after checking
    that every entry is finite and ``>= 0``."""
    import numpy as np
    try:
        xs = np.asarray(xs, dtype=float)
    except OverflowError:  # an int beyond the doubles
        raise DomainError(f"{label}: {name} is beyond the double range") from None
    if not xs.size:
        return xs, False
    lo, hi = float(xs.min()), float(xs.max())
    if not (lo >= 0.0 and hi < math.inf):
        raise DomainError(f"{label}: {name} must be finite and >= 0, got values "
                          f"in [{lo!r}, {hi!r}]")
    return xs, lo == 0.0


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(x: float) -> int:
    return _I64.unpack(_F64.pack(x))[0]


def _double(k: int) -> float:
    return _F64.unpack(_I64.pack(k))[0]


# Positive doubles sort in the same order as their int64 bit patterns, so
# bisecting the patterns of [0, inf] reaches two adjacent doubles in at most
# this many halvings: the bit length of the pattern of inf, which is also the
# number of bits the grid walk of ``inverse_grid`` fixes.
_INF_BITS = _bits(math.inf)
_STEPS = _INF_BITS.bit_length()

# The ITP search of :func:`_root` (Oliveri & Takahashi, ACM TOMS 47(1), 2020).
# _N0 probes of slack over bisection let it follow the interpolated estimate,
# and each jump below adds one probe to that budget, so a jump that lands in
# the far half of the bracket does not spend the slack: at most
# _STEPS + _N0 + _JUMPS probes in all.  Unlike ITP, the estimate is not
# truncated toward the midpoint: the exact predicate decides every step, and
# the truncation only cost probes.  Below a width of _BIT_SECANT patterns
# the secant runs on the patterns, where log x can no longer tell
# neighbouring doubles apart.  The convexity jump lands on the root itself
# for a linear psi, so it overshoots by a relative _OVERSHOOT of its length
# to cross the root despite rounding.  It is taken at most _JUMPS times,
# and after the first only while the gap is at least _JUMP_GAP: closer in,
# the secant is converging and a jump, which overshoots the root by the
# elasticity of psi, would only cost a probe.  When the
# secant through the moving end's last two probes is available, a stall
# steps _STALL_STEP times that secant's step instead, if that is shorter:
# past a root the secant approaches from the convex side, short of the
# jump.  An infinite gap (a modular that overflows, or underflows to 0)
# enters a secant as +-_INF_GAP, about the span of log over the doubles:
# the true gap is at least 709 and usually thousands, and a stand-in that
# small puts the next probe where psi is subnormal and a call costs several
# times more.  The damping scales it down from there like a finite gap;
# kept infinite, it let secants creep up on the root from the other side.
_N0 = 1
_BIT_SECANT = 1 << 40
_OVERSHOOT = 2.0 ** -20
_JUMPS = 3
_JUMP_GAP = 2.0 ** -10
_STALL_STEP = 1.5
_INF_GAP = 1500.0


def _exp_bits(log_x: float) -> int:
    """The pattern of ``exp(log_x)``, saturating at the pattern of ``inf``."""
    try:
        return _bits(math.exp(log_x))
    except OverflowError:
        return _INF_BITS


def _step_bits(x: float, log_step: float) -> int:
    """The pattern of ``x * e**log_step``.  A short step multiplies: ``log x``
    carries too few bits to land within a few patterns of ``x``."""
    if abs(log_step) < 1.0:
        return _bits(x * math.exp(log_step))
    return _exp_bits(math.log(x) + log_step)


def _secant(i: int, j: int, gi: float, gj: float, xi: float, xj: float) -> int | None:
    """The pattern where the line through the gaps at patterns ``i < j``
    crosses 0, clipped to ``[i, j]``; ``None`` when a gap is NaN or the two
    are equal.  ``xi`` and ``xj`` are the doubles of ``i`` and ``j``.  An
    infinite gap counts as ``+-_INF_GAP``."""
    if math.isinf(gi):
        gi = math.copysign(_INF_GAP, gi)
    if math.isinf(gj):
        gj = math.copysign(_INF_GAP, gj)
    if math.isnan(gi) or math.isnan(gj) or gi == gj:
        return None
    fi = gi / (gi - gj)
    fi = 0.0 if fi < 0.0 else 1.0 if fi > 1.0 else fi
    if j - i < _BIT_SECANT:
        return i + round(fi * (j - i))
    span = math.log(xj) - math.log(xi)
    if fi <= 0.5:  # step from the nearer end
        return _step_bits(xi, fi * span)
    return _step_bits(xj, -min(max(gj / (gj - gi), 0.0), 1.0) * span)


def _root(probe: Callable[[float], tuple[bool, float]],
          start: float | None = None) -> tuple[float, float]:
    """Adjacent doubles ``(a, b)`` in ``[0, inf]`` where ``below`` turns false.

    ``probe(x)`` returns ``(below, gap)``.  ``below`` is a predicate that is
    true up to some point of ``[0, inf]`` and false from there on; it alone
    decides which end of the bracket moves.  ``gap`` is a log ratio that
    falls through 0 near that point (``log modular``, ``log y - log psi``);
    it only places the next probe, so any value, ``±inf`` or NaN included,
    leaves the result unchanged.

    The search runs on the ordered int64 bit patterns of the doubles.  The
    first probe is the midpoint pattern or, when ``start`` (a positive
    double) is given, the pattern of ``start`` clipped into the open
    bracket: a caller that knows the scale of the root saves the probes
    that would find it.  The first probe with a finite gap is followed by a
    convexity jump to ``x * e**gap``, which crosses the root when
    ``psi(t) / t`` is nondecreasing.  After that each estimate is the secant of the gaps at
    the two ends against ``log x`` (against the pattern once the ends are
    close, and from the nearer end).  When two estimates in a row move the
    same end, the gap at the other end is scaled down (Anderson-Bjorck; an
    infinite gap from ``+-_INF_GAP``), and
    while the gap is not small the end that moved steps again, by the jump
    or by half again the secant step through its last two probes, whichever
    is shorter, if that cuts the bracket to its nearest eighth; ``_JUMPS``
    jumps and steps in all, each with one more probe of budget.  ITP
    projects the estimate onto a shrinking radius around the midpoint
    pattern, so the search ends in at most
    ``_STEPS + _N0 + _JUMPS`` probes whatever the gaps and ``start`` say,
    with no tolerance: the whole of ``[0, inf]`` spans fewer than the
    ``2**(_STEPS + _N0 - 1)`` patterns that ITP allows after one probe, so
    any first probe keeps the budget.  The endpoints are never probed:
    ``a`` is 0 or a point where ``below`` held, ``b`` is ``inf`` or a point
    where it failed.
    """
    i, j = 0, _INF_BITS
    a, b = 0.0, math.inf  # the ends as doubles
    gi = gj = math.nan  # the gap at each end; NaN until that end is probed
    n_max = _STEPS + _N0
    first = _INF_BITS >> 1 if start is None else min(max(_bits(start), 1), _INF_BITS - 1)
    k, jump, jumps, moved = 0, None, 0, None
    while j - i > 1:
        w = j - i
        mid = i + (w >> 1)
        if jump is None:
            x = _secant(i, j, gi, gj, a, b)
        else:  # a jump beyond the bracket tells nothing new
            x, jump = (jump if i <= jump <= j else None), None
        estimated = x is not None
        if x is None:  # no gap at either end before the first probe
            x = mid if k else first
        else:
            r = (1 << (n_max - k - 1)) - ((w + 1) >> 1)  # next w <= 2**(n_max-k-1)
            # min(max(x, mid - r, i + 1), mid + r, j - 1), without the calls
            if x < mid - r:
                x = mid - r
            if x <= i:
                x = i + 1
            if x > mid + r:
                x = mid + r
            if x >= j:
                x = j - 1
        t = _double(x)
        below, gap = probe(t)
        k += 1
        stalled = estimated and below == moved  # two estimates moved one end
        if stalled:  # damp the gap at the end that stays put, an infinite one too
            g, t_old = (gi, a) if below else (gj, b)
            m = 1.0 - gap / g if g else 0.5
            m = m if 0.0 < m <= 1.0 else 0.5
            if below:
                gj = (math.copysign(_INF_GAP, gj) if math.isinf(gj) else gj) * m
            else:
                gi = (math.copysign(_INF_GAP, gi) if math.isinf(gi) else gi) * m
        moved = below if estimated else None
        if below:
            i, gi, a = x, gap, t
        else:
            j, gj, b = x, gap, t
        if math.isfinite(gap) and (jumps == 0 or stalled and jumps < _JUMPS
                                   and abs(gap) >= _JUMP_GAP):
            step = gap * (1.0 + _OVERSHOOT)
            if stalled and math.isfinite(g) and g != gap:
                local = _STALL_STEP * gap * math.log(t / t_old) / (g - gap)
                if 0.0 < local / step < 1.0:
                    step = local
            to = _step_bits(t, step)
            # A stalled secant creeps up on the root from one side; a step
            # from there, when it lands close, cuts the far side at once.
            if jumps == 0 or i < to < j and abs(to - x) < (j - i) >> 3:
                jump, jumps, moved = to, jumps + 1, None
                n_max += 1
    return a, b


def _no_upper_bracket(label: str, y: float) -> BracketError:
    return BracketError(f"{label}: no upper bracket for inverse at y={y!r}; "
                        "psi(t) < y for every finite t")


def _nan_psi(label: str, t: float) -> ArithmeticError:
    return ArithmeticError(f"{label}: psi({t!r}) is NaN")


class YoungFunction(NamedTuple):
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
        return self.family._psi(_nonneg("t", t, self), self.q)

    def inverse(self, y: float) -> float:
        """The smallest double ``t`` with ``psi(t) >= y``: the root of
        ``psi(t) = y`` to the ulp, by :func:`_root` over ``[0, inf]``.

        At most ``_STEPS + _N0 + _JUMPS`` (67) evaluations of ``psi`` at any
        scale of ``y``; an overflowing evaluation counts as ``inf``.  The test
        ``psi(t) < y`` decides each step, and ``log(y / psi(t))`` only places
        the next probe.  :class:`BracketError` when ``psi`` stays below ``y``
        on every finite ``t``; ``ArithmeticError`` when a probe finds ``psi``
        NaN.
        """
        y = _nonneg("y", y, self)
        if y == 0.0:
            return 0.0

        psi, q = self.family._psi, self.q

        def probe(t: float) -> tuple[bool, float]:
            v = psi(t, q)
            if not v > 0.0:
                if math.isnan(v):
                    raise _nan_psi(self.label, t)
                return v < y, math.inf
            # The log of the ratio keeps full precision near the root, where
            # log y - log v cancels; the difference serves where y / v
            # leaves the double range.
            ratio = y / v
            gap = math.log(ratio) if 0.0 < ratio < math.inf else math.log(y) - math.log(v)
            return v < y, gap
        t = _root(probe)[1]
        if t == math.inf:
            raise _no_upper_bracket(self.label, y)
        return t


class YoungFamily(NamedTuple):
    """A one-parameter family of Young functions ``psi_q``.

    ``fn(t, q)`` is the formula of the member at ``q`` for a float ``t > 0``;
    ``array_fn(t, q)`` is the same formula over float64 arrays, broadcasting
    over both ``t`` and ``q``.  Without ``array_fn`` the grid
    methods evaluate ``fn`` cell by cell.  ``params`` are the numeric
    parameters that fix the family (the keys of its spec), and they label
    its members.
    ``q_min`` is the smallest admissible ``q``; the sentinel ``0.0`` means
    any ``q > 0`` is allowed.

    Each member must be a Young function: 0 at 0, strictly increasing and
    convex.  :func:`orlicz.admissibility.classify` rejects, with
    :class:`DomainError`, a family whose value grid shows a member that is
    not increasing or not convex.  The scalar paths (``inverse``,
    ``luxemburg_norm``) make no such check per call: there a member that is
    not increasing gives undefined results.
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
        q = _float("q", q, self)
        if math.isnan(q) or math.isinf(q):
            raise DomainError(f"{self.label}: q must be finite, got {q!r}")
        if not self.admits(q):
            bound = f">= {self.q_min}" if self.q_min > 0.0 else "> 0"
            raise DomainError(f"{self.label} requires q {bound}, got {q!r}")
        return q

    def _check_qs(self, qs) -> list[float]:
        """:meth:`_check_q` over ``qs`` in one pass: a finite sum and an
        admitted least ``q``, or else the check one ``q`` at a time, which
        names the first bad one."""
        qs = list(qs)
        try:
            floats = list(map(float, qs))
        except OverflowError:  # an int beyond the doubles, which _check_q names
            floats = []
        if not (floats and math.isfinite(sum(floats)) and self.admits(min(floats))):
            floats = [self._check_q(q) for q in qs]
        return floats

    def make(self, q: float) -> YoungFunction:
        """The member at ``q``, after checking that the family admits it."""
        return YoungFunction(self, self._check_q(q))

    def _psi(self, t: float, q: float) -> float:
        """The member at ``q`` at a float ``t >= 0``, unchecked: exactly 0 at
        ``t = 0`` whatever the formula, and ``inf`` where it overflows."""
        if t == 0.0:
            return 0.0
        try:
            return float(self.fn(t, q))
        except OverflowError:
            return math.inf

    def _psi_array(self, ts: np.ndarray, qs, zeros: bool) -> np.ndarray:
        """:meth:`_psi` over float64 arrays, broadcasting over ``ts`` and
        ``qs``, unchecked.  ``zeros`` says whether ``ts`` may hold a 0, which
        the array formula alone does not map to 0."""
        import numpy as np
        with np.errstate(over="ignore", under="ignore"):
            out = self._array_formula()(ts, qs)
        return np.where(ts == 0.0, 0.0, out) if zeros else out

    def _array_formula(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``array_fn``, or without one :meth:`_psi` vectorized: the formula of
        :meth:`_psi_array`, for a loop that sets the error state once.  Python's
        float pow raises the FPU overflow flag on its way to OverflowError, so
        the vectorized form needs ``over="ignore"`` as much as ``array_fn``."""
        if self.array_fn is None:
            import numpy as np
            return np.vectorize(self._psi, otypes=[float])
        return self.array_fn

    def evaluate_grid(self, ts, qs) -> np.ndarray:
        """``psi_q(t)`` for every ``t`` in ``ts`` (rows) and ``q`` in ``qs``
        (columns), with the rules of :meth:`YoungFunction.__call__`: a
        negative or non-finite ``t`` raises :class:`DomainError`, ``psi(0) =
        0`` exactly, and overflow gives ``inf``."""
        import numpy as np
        qs = self._check_qs(qs)
        ts, zeros = _check_array(self.label, "t", ts)
        out = self._psi_array(ts.reshape(-1, 1), np.array([qs]), zeros)
        # An array_fn may ignore q; the copy makes the broadcast view writable.
        return np.broadcast_to(out, (ts.size, len(qs))).copy()

    def inverse_grid(self, ys, qs) -> np.ndarray:
        """``psi_q^{-1}(y)`` for every ``y`` in ``ys`` (rows) and ``q`` in
        ``qs`` (columns), with the errors and results of
        :meth:`YoungFunction.inverse` cell by cell for a ``psi`` without NaN.

        Every cell walks the bit patterns of ``[0, inf]`` from the top bit
        down, in lockstep: each step sets the next bit of the cell's lower
        end where ``psi`` is still below ``y`` with it set, one evaluation of
        :meth:`_array_formula` over the whole grid per step and ``_STEPS``
        steps in all.  A cell ends on the pattern above its lower end, where
        that test failed; for an increasing ``psi`` that is the smallest
        pattern where it fails, where a bisection ends too.  ``psi`` is never
        evaluated at ``t = 0``.  A cell whose result a NaN of ``psi`` decided
        raises ``ArithmeticError``; a NaN the walk never meets decides
        nothing.  So below the root the grid raises only where a NaN decides
        the cell, while :meth:`YoungFunction.inverse` raises where any of its
        probes meets one: on a ``psi`` that is NaN below the root the two
        may differ, one raising and the other giving the root.
        """
        import numpy as np
        qs = self._check_qs(qs)
        ys = _check_array(self.label, "y", ys)[0].ravel()
        shape = ys.size, len(qs)
        ys, q_cells = np.repeat(ys, len(qs)), np.tile(qs, ys.size)
        lo = np.zeros(ys.shape, dtype=np.int64)

        def label(cell: int) -> str:
            return YoungFunction(self, float(q_cells[cell])).label
        psi = self._array_formula()
        with np.errstate(all="ignore"):
            for bit in range(_STEPS - 1, -1, -1):
                mid = lo | (1 << bit)
                np.copyto(lo, mid, where=psi(mid.view(float), q_cells) < ys)
            # psi stayed below y up to the largest double.  Past inf the walk
            # meets the NaN patterns, where a formula finite at inf lets lo
            # reach 2**63 - 1, so test lo: lo + 1 may wrap.
            unbounded = np.flatnonzero(lo >= _INF_BITS - 1)
            if unbounded.size:
                raise _no_upper_bracket(label(unbounded[0]), float(ys[unbounded[0]]))
            # lo + 1 is the pattern where the test last failed on the way
            # down, so it is at or above y or a NaN, and a NaN that decided a
            # cell is there: one more evaluation finds it, where a NaN screen
            # at every step cost ~10% of the solve.
            ts = (lo + 1).view(float)
            vs = psi(ts, q_cells)
            if math.isnan(vs.sum()):  # a cheap screen: true for any NaN (and for inf - inf)
                nan = np.flatnonzero(np.isnan(vs) & (ys > 0.0))
                if nan.size:
                    raise _nan_psi(label(nan[0]), float(ts[nan[0]]))
        return np.where(ys == 0.0, 0.0, ts).reshape(shape)  # y = 0 maps to 0


def _anchor_constant(n: int) -> float:
    """The ``c > 0`` whose n-fold iterated log of ``c + 1`` equals 1: ``c + 1``
    is ``exp`` applied n times to 1."""
    x = 1.0
    for _ in range(n):
        x = math.exp(x)
    return x - 1.0


# 1 / exp^k(1) for k = 1, 2, 3, correctly rounded (mpmath at 40 digits): the
# steps of the anchored chain.  exp applied three times in doubles gives
# exp^3(1) 14 ulp low, and its reciprocal 8 ulp high, an error of the chain
# that the power q would multiply.
_RECIPROCAL_ANCHORS = (0.36787944117144233, 0.06598803584531254, 2.6217273894613533e-07)


def _chain_family(label: str, params: dict, n: int, shift: float, p: float,
                  lower: Callable | None = None) -> YoungFamily:
    """``t^p * L^q`` for ``L`` the n-fold iterated log of ``exp^n(1) + t -
    shift``, for any ``q > 0``, carried as its offset from 1, where ``L = 1``.

    With ``e_0 = t - shift`` and ``e_j = log1p(e_{j-1} / exp^{n-j+1}(1))``,
    ``L = 1 + e_n`` and the member is ``t^p * exp(q * log1p(e_n))``: no sum
    ``c + t`` rounds away the low bits of ``t``, and the power ``q`` scales
    only the rounding of ``log L``, so the member's relative error is a few
    ulp times ``1 + |q log L|``.  At ``t = shift`` every ``e_j`` is 0 and the
    log factor is exactly 1.  ``lower(t, log=math.log)``, when given, multiplies the
    member by ``lower(t)^p`` and raises ``L`` to ``p + q``.

    The scalar form is written out for each ``n``: a loop over the steps
    cost ~40 ns a call on the norm path, where a small norm calls it once per
    atom and probe.  The array form runs the same operations, the steps in a
    loop, whose cost numpy's per-call cost dwarfs; numpy is imported on its
    first call, so building a family does not load it.
    """
    r0, r1, r2 = (_RECIPROCAL_ANCHORS[n - 1::-1] + (0.0, 0.0))[:3]
    log1p, exp = math.log1p, math.exp
    chain = (lambda t, q: t ** p * exp(q * log1p(log1p((t - shift) * r0))),
             lambda t, q: t ** p * exp(q * log1p(log1p(log1p((t - shift) * r0) * r1))),
             lambda t, q: t ** p * exp(q * log1p(log1p(log1p(log1p((t - shift) * r0) * r1)
                                                          * r2))))[n - 1]

    def array_fn(t, q):
        import numpy as np
        e = t - shift
        for r in (r0, r1, r2)[:n]:
            np.log1p(np.multiply(e, r, out=e), out=e)
        e = (q if lower is None else p + q) * np.log1p(e, out=e)
        np.exp(e, out=e)
        e *= t if p == 1.0 else t ** p  # t ** 1.0 == t, one array pass fewer
        return e if lower is None else lower(t, np.log) ** p * e
    fn = chain if lower is None else lambda t, q: lower(t) ** p * chain(t, p + q)
    return YoungFamily(label, fn, params, q_min=0.0, array_fn=array_fn)


def _check_p(name: str, p: float) -> float:
    p = _float(f"{name}: p", p, error=FamilySpecError)
    if not math.isfinite(p) or p < 1.0:
        raise FamilySpecError(f"{name} requires p >= 1, got {p!r}")
    return p


def _check_N(name: str, N: int) -> int:
    """``N`` when it is a whole number (an ``__index__`` type, not a bool) in
    ``1..3``; a float or a bool is not truncated to one."""
    if isinstance(N, bool) or not hasattr(type(N), "__index__") or N < 1:
        raise FamilySpecError(f"{name} requires integer N >= 1, got {N!r}")
    if N > 3:
        raise FamilySpecError(
            f"{name} anchor for N={N} is not representable in double precision (N <= 3)")
    return int(N)


def power_family() -> YoungFamily:
    """``t^q`` for ``q >= 1``."""
    def fn(t, q):
        return t ** q
    return YoungFamily("power", fn, {}, q_min=1.0, array_fn=fn)


def logbump_family(p: float = 1.0) -> YoungFamily:
    """``t^p * log(e - 1 + t)^q`` with ``p >= 1`` fixed and any ``q > 0``.

    The shift ``e - 1`` pins ``psi_q(1) = 1`` for every ``q``.  The log is
    the anchored chain of :func:`_chain_family`, the formula of
    ``iterlog:N=1``.
    """
    p = _check_p("logbump", p)
    return _chain_family("logbump", {"p": p}, 1, 1.0, p)


def iterlog_family(N: int = 1, p: float = 1.0) -> YoungFamily:
    """``t^p * (N-fold iterated log of (c + t))^q`` with the anchor ``c``
    solved so that ``psi_q(1) = 1`` independently of ``q``.

    ``c + 1 = exp^N(1)``, and the log is the anchored chain of
    :func:`_chain_family`, which never forms ``c + t``.  Doubles cannot
    represent the anchor beyond ``N = 3``.
    """
    N, p = _check_N("iterlog", N), _check_p("iterlog", p)
    return _chain_family("iterlog", {"N": N, "p": p}, N, 1.0, p)


def addie_family(N: int = 1, p: float = 1.0) -> YoungFamily:
    """``(t * prod_j L_j(c_j + t))^p * L_N(c_N + t)^q`` where ``L_j`` is the
    j-fold iterated log and each ``c_j`` is anchored so ``L_j(c_j + 1) = 1``.

    With those anchors every factor equals 1 at ``t = 1``, so ``psi_q(1)`` does
    not depend on ``q``.  The member is ``prod_{j<N} L_j(c_j + t)^p`` times
    the ``iterlog`` chain at ``p + q``; the factors ``j < N`` carry no power
    ``q`` and need only relative accuracy, so they stay plain logs.
    """
    N, p = _check_N("addie", N), _check_p("addie", p)
    c1, c2 = _anchor_constant(1), _anchor_constant(2)

    def lower(t, log=math.log):  # prod_{j<N} L_j(c_j + t)
        return 1.0 if N == 1 else log(c1 + t) if N == 2 else log(c1 + t) * log(log(c2 + t))
    return _chain_family("addie", {"N": N, "p": p}, N, 1.0, p, lower)


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
        import numpy as np
        # The bump is 0 on [0, 1/2], where 0.5 * (t^q + 0) == 0.5 * t^q.
        bump = np.maximum(2.0 * t - 1.0, 0.0)
        return 0.5 * (t ** q + bump ** np.where(t < 1.0, 2.0 + np.sin(q), 3.0))
    return YoungFamily("sinpiecewise", fn, {}, q_min=1.0, array_fn=array_fn)


def powerlog_e_family(p: float = 1.0) -> YoungFamily:
    """``t^p * log(e + t)^q``.  The log factor exceeds 1 for every ``t > 0``,
    so the family blows up pointwise as ``q`` grows and no normalization
    anchor exists.  ``log(e + t) = 1 + log1p(t / e)``: the chain of
    :func:`_chain_family` with one step, anchored at ``t = 0``."""
    p = _check_p("powerlog_e", p)
    return _chain_family("powerlog_e", {"p": p}, 1, 0.0, p)


def identity_family() -> YoungFamily:
    """The pseudo-Young function ``t -> t`` for every ``q``.

    Usable wherever a comparison function is required; its growth is exactly
    linear, so it is convex but not strictly.
    """
    def fn(t, q):
        return t
    return YoungFamily("identity", fn, {}, q_min=0.0, array_fn=fn)


_CATALOG: dict[str, tuple[tuple[str, ...], Callable[..., YoungFamily]]] = {
    "power": ((), power_family),
    "logbump": (("p",), logbump_family),
    "iterlog": (("p", "N"), iterlog_family),
    "addie": (("p", "N"), addie_family),
    "sinpiecewise": ((), sinpiecewise_family),
    "powerlog_e": (("p",), powerlog_e_family),
    "identity": ((), identity_family),
}


# How ``make_family`` converts each spec value, and what the value must be.
_SPEC_VALUES = {"p": (float, "a real number"), "N": (int, "an integer")}


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
            convert, kind = _SPEC_VALUES[key]
            try:
                kwargs[key] = convert(text)
            except ValueError:
                raise FamilySpecError(f"{key} must be {kind}, got {text!r}") from None
    return builder(**kwargs)
