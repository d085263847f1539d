"""Measure spaces and simple functions with exact finite-sum integrals.

A :class:`SimpleFunction` is a finite list of ``(value, mass)`` atoms over a
sigma-finite :class:`MeasureSpace`: the function takes ``value`` on a set of
measure ``mass`` and 0 on the rest of the space.  Values are magnitudes
(``>= 0``) since every norm computed downstream depends only on ``|f|``.

Atoms are canonicalized at construction: equal values merge by summing their
masses, atoms are sorted by decreasing value, and zero-value atoms are dropped
(their mass belongs to the complement, which the distribution handles through
``total_mass``).  The atoms are also available as two read-only float64
arrays, ``values`` and ``masses``, built on first use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DistributionSet",
    "InputFormatError",
    "MeasureModelError",
    "MeasureSpace",
    "SimpleFunction",
    "distribution",
    "ess_sup",
    "read_simple_function",
    "simple_function_from_json",
    "truncate",
]


class MeasureModelError(ValueError):
    """Construction or argument violates the measure-model invariants."""


class InputFormatError(ValueError):
    """A JSON document does not match the expected input schema."""


@dataclass(frozen=True)
class MeasureSpace:
    """A sigma-finite measure space, known only through its total mass."""

    total_mass: float
    label: str = ""

    def __post_init__(self) -> None:
        m = float(self.total_mass)
        if math.isnan(m) or m <= 0.0:
            raise MeasureModelError(f"total_mass must be positive, got {self.total_mass!r}")
        object.__setattr__(self, "total_mass", m)

    @property
    def finite(self) -> bool:
        return math.isfinite(self.total_mass)


@dataclass(frozen=True)
class SimpleFunction:
    """A nonnegative simple function given by ``(value, mass)`` atoms."""

    atoms: tuple[tuple[float, float], ...]
    space: MeasureSpace

    def __post_init__(self) -> None:
        merged: dict[float, float] = {}
        for pair in self.atoms:
            value, mass = pair
            v, m = float(value), float(mass)
            if math.isnan(v) or math.isinf(v) or v < 0.0:
                raise MeasureModelError(f"atom value must be finite and >= 0, got {value!r}")
            if math.isnan(m) or math.isinf(m) or m <= 0.0:
                raise MeasureModelError(f"atom mass must be finite and > 0, got {mass!r}")
            merged[v] = merged.get(v, 0.0) + m
        # fsum raises OverflowError when finite masses sum beyond the double
        # range; a merged mass that already overflowed gets the same error.
        support = math.fsum(merged.values())
        if math.isinf(support):
            raise OverflowError("atom masses at one value sum beyond the double range")
        if self.space.finite and support > self.space.total_mass * (1.0 + 1e-12):
            raise MeasureModelError(
                f"atom masses sum to {support!r} > total_mass {self.space.total_mass!r}")
        canon = tuple(sorted(((v, m) for v, m in merged.items() if v > 0.0),
                             reverse=True))
        object.__setattr__(self, "atoms", canon)

    @property
    def support_mass(self) -> float:
        """Total mass where the function is nonzero."""
        return math.fsum(m for _, m in self.atoms)

    @cached_property
    def values(self) -> np.ndarray:
        """Atom values in canonical (decreasing) order, read-only."""
        return _read_only([v for v, _ in self.atoms])

    @cached_property
    def masses(self) -> np.ndarray:
        """Atom masses aligned with :attr:`values`, read-only."""
        return _read_only([m for _, m in self.atoms])


def _read_only(xs: list[float]) -> np.ndarray:
    a = np.array(xs, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DistributionSet:
    """Measure of a superlevel set ``{|f| >= threshold}``."""

    threshold: float
    mass: float


def ess_sup(f: SimpleFunction) -> float:
    """Essential supremum; 0 for the zero function."""
    return f.atoms[0][0] if f.atoms else 0.0


def distribution(f: SimpleFunction, alpha: float) -> DistributionSet:
    """Mass of ``{|f| >= alpha}``.  At ``alpha = 0`` that is the whole space."""
    a = float(alpha)
    if math.isnan(a) or a < 0.0:
        raise MeasureModelError(f"alpha must be >= 0, got {alpha!r}")
    if a == 0.0:
        return DistributionSet(0.0, f.space.total_mass)
    return DistributionSet(a, math.fsum(m for v, m in f.atoms if v >= a))


def truncate(f: SimpleFunction, level: float) -> SimpleFunction:
    """Pointwise ``min(|f|, level)``; atoms merging at the cap are combined."""
    c = float(level)
    if math.isnan(c) or c <= 0.0:
        raise MeasureModelError(f"truncation level must be > 0, got {level!r}")
    return SimpleFunction(tuple((min(v, c), m) for v, m in f.atoms), f.space)


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
        total = float(tm)
    else:
        raise InputFormatError(f"total_mass must be a number or 'inf', got {tm!r}")

    raw_atoms = obj["atoms"]
    if not isinstance(raw_atoms, list):
        raise InputFormatError("'atoms' must be a list")
    atoms: list[tuple[float, float]] = []
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
        atoms.append((float(entry["value"]), float(entry["mass"])))

    try:
        return SimpleFunction(tuple(atoms), MeasureSpace(total))
    except MeasureModelError as exc:
        raise InputFormatError(str(exc)) from exc


def read_simple_function(path: str) -> SimpleFunction:
    """Load the JSON layout of :func:`simple_function_from_json` from a file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON in {path!r}: {exc}") from exc
    return simple_function_from_json(obj)
