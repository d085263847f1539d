"""Measure spaces and simple functions with exact finite-sum integrals.

A :class:`SimpleFunction` is a finite list of ``(value, mass)`` atoms over a
sigma-finite :class:`MeasureSpace`: the function takes ``value`` on a set of
measure ``mass`` and 0 on the rest of the space.  Values are magnitudes
(``>= 0``) since every norm computed downstream depends only on ``|f|``.

Atoms are canonicalized at construction: equal values merge by summing their
masses, atoms are sorted by decreasing value, and zero-value atoms are dropped
(their mass belongs to the complement, which the distribution handles through
``total_mass``).  The atoms are also available as two read-only float64
arrays, ``values`` and ``masses``, built (and numpy imported) on first use.

A JSON document is read in whole-list passes that builtins run: every entry
an exact ``dict`` of two keys, both found by one ``itemgetter``, every number
an exact ``int`` or ``float`` (so no ``bool``), converted by ``map(float, ...)``.
When a pass fails, ``_checked_atoms`` checks the list one entry at a time.  It
is the one statement of the rules and the only code that names a fault
(``atom #i ...``), and it also accepts what the passes are too strict for,
such as a dict subclass or a ``numpy.float64`` from a Python caller.  Both
paths give the same atoms and the same errors.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .young import _float

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InputFormatError",
    "MeasureModelError",
    "MeasureSpace",
    "SimpleFunction",
    "distribution",
    "ess_sup",
    "read_simple_function",
    "simple_function_from_json",
]


class MeasureModelError(ValueError):
    """Construction or argument violates the measure-model invariants."""


class InputFormatError(ValueError):
    """A JSON document does not match the expected input schema."""


def _checked_make(cls, fields):
    """``_make``, and through it ``_replace``, by way of ``cls(*fields)``, so
    that a new record passes the checks of ``__new__``."""
    return cls(*fields)


class MeasureSpace(NamedTuple("MeasureSpace", [("total_mass", float)])):
    """A sigma-finite measure space, known only through its total mass."""

    __slots__ = ()

    def __new__(cls, total_mass: float) -> MeasureSpace:
        m = _float("total_mass", total_mass, error=MeasureModelError)
        if math.isnan(m) or m <= 0.0:
            raise MeasureModelError(f"total_mass must be positive, got {total_mass!r}")
        return super().__new__(cls, m)

    _make = classmethod(_checked_make)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.total_mass)


class SimpleFunction(NamedTuple("SimpleFunction", [("atoms", tuple[tuple[float, float], ...]),
                                                   ("space", MeasureSpace)])):
    """A nonnegative simple function given by ``(value, mass)`` atoms.

    Without ``__slots__``, so that ``values`` and ``masses`` can cache their
    arrays in the instance dict; ``__setattr__`` keeps it read-only all the
    same.
    """

    def __new__(cls, atoms: tuple[tuple[float, float], ...],
                space: MeasureSpace) -> SimpleFunction:
        return super().__new__(cls, cls.__post_init__(atoms, space), space)

    _make = classmethod(_checked_make)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @staticmethod
    def __post_init__(atoms, space: MeasureSpace) -> tuple[tuple[float, float], ...]:
        """The canonical atoms of ``atoms`` over ``space``, after checking them.

        ``perfbench/tracer.py`` wraps this name as its ``measure.simple_function``
        layer, so ``__new__`` looks it up on the class at every call."""
        merged: dict[float, float] = {}
        try:  # one try for the loop: it is most of the cost of reading a function
            for value, mass in atoms:
                v, m = float(value), float(mass)
                if not 0.0 <= v < math.inf:  # both comparisons are false for NaN
                    raise MeasureModelError(f"atom value must be finite and >= 0, got {value!r}")
                if not 0.0 < m < math.inf:
                    raise MeasureModelError(f"atom mass must be finite and > 0, got {mass!r}")
                merged[v] = merged.get(v, 0.0) + m
        except OverflowError:  # an int beyond the doubles
            raise MeasureModelError("atom value or mass is beyond the double range") from None
        if math.inf in merged.values():
            raise OverflowError("atom masses at one value sum beyond the double range")
        support = _mass_sum(merged.values())
        if space.finite and support > space.total_mass * (1.0 + 1e-12):
            raise MeasureModelError(
                f"atom masses sum to {support!r} > total_mass {space.total_mass!r}")
        merged.pop(0.0, None)  # the zero-value atom's mass belongs to the complement
        return tuple(sorted(merged.items(), key=itemgetter(0), reverse=True))

    @cached_property
    def values(self) -> np.ndarray:
        """Atom values in canonical (decreasing) order, read-only."""
        return _read_only([v for v, _ in self.atoms])

    @cached_property
    def masses(self) -> np.ndarray:
        """Atom masses aligned with :attr:`values`, read-only."""
        return _read_only([m for _, m in self.atoms])


def _mass_sum(masses) -> float:
    """Exact sum of finite masses, ``inf`` when it exceeds the double range
    (where ``math.fsum`` raises ``OverflowError``)."""
    try:
        return math.fsum(masses)
    except OverflowError:
        return math.inf


def _read_only(xs: list[float]) -> np.ndarray:
    import numpy as np
    a = np.array(xs, dtype=float)
    a.flags.writeable = False
    return a


def ess_sup(f: SimpleFunction) -> float:
    """Essential supremum; 0 for the zero function."""
    return f.atoms[0][0] if f.atoms else 0.0


def distribution(f: SimpleFunction, alpha: float) -> float:
    """Mass of ``{|f| >= alpha}``.  At ``alpha = 0`` that is the whole space;
    ``inf`` when the masses sum beyond the double range."""
    a = _float("alpha", alpha, error=MeasureModelError)
    if math.isnan(a) or a < 0.0:
        raise MeasureModelError(f"alpha must be >= 0, got {alpha!r}")
    if a == 0.0:
        return f.space.total_mass
    return _mass_sum(m for v, m in f.atoms if v >= a)


def simple_function_from_json(obj: object) -> SimpleFunction:
    """Build a :class:`SimpleFunction` from the canonical JSON layout.

    Expected shape::

        {"total_mass": <positive number> | "inf",
         "atoms": [{"value": <number >= 0>, "mass": <number > 0>}, ...]}

    Unknown keys anywhere are rejected.
    """
    if not isinstance(obj, dict):
        raise InputFormatError(f"top level must be an object, got {type(obj).__name__}")
    extra = set(obj) - {"total_mass", "atoms"}
    if extra:
        raise InputFormatError(f"unknown keys: {sorted(extra)}")
    if "total_mass" not in obj or "atoms" not in obj:
        raise InputFormatError("need both 'total_mass' and 'atoms'")

    tm = obj["total_mass"]
    if tm == "inf":
        total = math.inf
    elif isinstance(tm, (int, float)) and not isinstance(tm, bool):
        total = _float("total_mass", tm, error=InputFormatError)
        if total == math.inf:  # 1e400 or Infinity; only "inf" asks for an infinite space
            raise InputFormatError("total_mass is beyond the double range")
    else:
        raise InputFormatError(f"total_mass must be a number or 'inf', got {tm!r}")

    raw_atoms = obj["atoms"]
    if not isinstance(raw_atoms, list):
        raise InputFormatError("'atoms' must be a list")
    atoms = None  # whole-list passes; the per-entry check decides where one fails
    if set(map(type, raw_atoms)) <= {dict} and set(map(len, raw_atoms)) <= {2}:
        with suppress(KeyError, OverflowError):  # a missing key; an int beyond the doubles
            pairs = list(map(itemgetter("value", "mass"), raw_atoms))
            kinds = set(map(type, chain.from_iterable(pairs)))  # bool is not int here
            if kinds <= {int, float}:
                numbers = map(float, chain.from_iterable(pairs))
                atoms = pairs if kinds <= {float} else list(zip(numbers, numbers))
    try:
        return SimpleFunction(tuple(atoms or _checked_atoms(raw_atoms)), MeasureSpace(total))
    except MeasureModelError as exc:
        raise InputFormatError(str(exc)) from exc


def _checked_atoms(raw_atoms: list) -> list[tuple[float, float]]:
    """The per-entry check: the one statement of the atom rules and the only
    code that names a faulty atom.  It also takes what the whole-list passes
    are too strict for, such as a dict subclass or a ``numpy.float64``."""
    atoms = []
    for i, entry in enumerate(raw_atoms):
        if not isinstance(entry, dict):
            raise InputFormatError(f"atom #{i} must be an object")
        extra = set(entry) - {"value", "mass"}
        if extra:
            raise InputFormatError(f"atom #{i} has unknown keys: {sorted(extra)}")
        if "value" not in entry or "mass" not in entry:
            raise InputFormatError(f"atom #{i} needs 'value' and 'mass'")
        for key in ("value", "mass"):
            if not isinstance(entry[key], (int, float)) or isinstance(entry[key], bool):
                raise InputFormatError(f"atom #{i} {key} must be a number, got {entry[key]!r}")
        atoms.append(tuple(_float(f"atom #{i} {k}", entry[k], error=InputFormatError)
                           for k in ("value", "mass")))
    return atoms


def read_simple_function(path: str) -> SimpleFunction:
    """Load the JSON layout of :func:`simple_function_from_json` from a file."""
    import json
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"invalid JSON in {path!r}: {exc}") from exc
    except ValueError as exc:  # int() refuses a literal beyond sys.get_int_max_str_digits()
        raise InputFormatError(f"invalid JSON in {path!r}: an integer is beyond "
                               "the double range") from exc
    return simple_function_from_json(obj)
