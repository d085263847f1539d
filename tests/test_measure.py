"""Measure-space model: canonicalization, distribution sums, JSON loading."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz import (
    InputFormatError,
    MeasureModelError,
    MeasureSpace,
    SimpleFunction,
    distribution,
    ess_sup,
    read_simple_function,
    simple_function_from_json,
)

INF = MeasureSpace(math.inf)


def test_space_rejects_nonpositive_mass():
    for bad in (0.0, -1.0, math.nan, 10 ** 400):  # float(10**400) raises OverflowError
        with pytest.raises(MeasureModelError):
            MeasureSpace(bad)


def test_space_finiteness_flag():
    assert not INF.finite
    assert MeasureSpace(2.0).finite


def test_ess_sup_is_max_value():
    f = SimpleFunction(((3.0, 1.0), (1.0, 1.0)), INF)
    assert ess_sup(f) == 3.0


def test_ess_sup_of_zero_function():
    assert ess_sup(SimpleFunction((), INF)) == 0.0


def test_equal_values_merge():
    f = SimpleFunction(((2.0, 0.5), (2.0, 0.5)), INF)
    assert f.atoms == ((2.0, 1.0),)
    assert ess_sup(f) == 2.0


def test_zero_values_dropped():
    f = SimpleFunction(((0.0, 5.0), (1.0, 1.0)), INF)
    assert f.atoms == ((1.0, 1.0),)


def test_atoms_sorted_descending():
    f = SimpleFunction(((1.0, 1.0), (5.0, 2.0), (3.0, 1.0)), INF)
    assert [v for v, _ in f.atoms] == [5.0, 3.0, 1.0]


def test_support_exceeding_total_mass_rejected():
    with pytest.raises(MeasureModelError):
        SimpleFunction(((1.0, 3.0),), MeasureSpace(2.0))


def test_support_check_counts_zero_atoms_before_drop():
    # The zero-level set still occupies measure: 2+2 > 3 even though the
    # zero atom later disappears from the canonical form.
    with pytest.raises(MeasureModelError):
        SimpleFunction(((0.0, 2.0), (1.0, 2.0)), MeasureSpace(3.0))


def test_invalid_atoms_rejected():
    for atoms in ([(-1.0, 1.0)], [(1.0, 0.0)], [(1.0, -2.0)],
                  [(math.inf, 1.0)], [(1.0, math.inf)], [(math.nan, 1.0)]):
        with pytest.raises(MeasureModelError):
            SimpleFunction(tuple(atoms), INF)


def test_merged_mass_overflow_rejected():
    # Two finite masses at one value merge into a mass beyond the double range.
    with pytest.raises(OverflowError):
        SimpleFunction(((1.0, 1e308), (1.0, 1e308)), INF)


def test_masses_overflowing_only_in_sum():
    # Each atom's mass is finite; only their total is not.  The function
    # lives in an infinite space and its norms are representable.
    f = SimpleFunction(((2.0, 1e308), (1.0, 1e308)), INF)
    assert f.masses.tolist() == [1e308, 1e308]
    with pytest.raises(OverflowError):  # the masses sum beyond the double range
        math.fsum(m for _, m in f.atoms)
    assert distribution(f, 0.5) == math.inf
    assert distribution(f, 1.5) == 1e308
    with pytest.raises(MeasureModelError):
        SimpleFunction(((2.0, 1e308), (1.0, 1e308)), MeasureSpace(1.7e308))


def test_atom_arrays_follow_canonical_order():
    f = SimpleFunction(((1.0, 2.0), (5.0, 3.0), (1.0, 0.5)), INF)
    assert f.values.tolist() == [5.0, 1.0]
    assert f.masses.tolist() == [3.0, 2.5]
    assert not f.values.flags.writeable and not f.masses.flags.writeable


def test_replace_checks_and_canonicalizes():
    f = SimpleFunction(((1.0, 1.0),), INF)
    g = f._replace(atoms=((1.0, 2.0), (5.0, 3.0), (1.0, 0.5), (0.0, 1.0)))
    assert g.atoms == ((5.0, 3.0), (1.0, 2.5))
    assert g.values.tolist() == [5.0, 1.0]
    assert g == SimpleFunction(g.atoms, INF) and g.space is INF
    with pytest.raises(MeasureModelError):
        f._replace(space=MeasureSpace(0.5))
    with pytest.raises(MeasureModelError):
        f._replace(atoms=((1.0, -1.0),))
    assert INF._replace(total_mass=2) == MeasureSpace(2.0)
    with pytest.raises(MeasureModelError):
        INF._replace(total_mass=0.0)
    with pytest.raises(MeasureModelError):
        MeasureSpace._make([math.nan])


def test_distribution_examples():
    f = SimpleFunction(((3.0, 1.0), (1.0, 2.0)), INF)
    assert distribution(f, 2.0) == 1.0
    assert distribution(f, 1.0) == 3.0
    assert distribution(f, 4.0) == 0.0


@pytest.mark.parametrize("alpha", [-1.0, math.nan])
def test_distribution_rejects_negative_or_nan_alpha(alpha):
    f = SimpleFunction(((3.0, 1.0),), INF)
    with pytest.raises(MeasureModelError, match=f"alpha must be >= 0, got {alpha!r}"):
        distribution(f, alpha)


def test_distribution_at_zero_is_whole_space():
    f = SimpleFunction(((3.0, 1.0),), MeasureSpace(10.0))
    assert distribution(f, 0.0) == 10.0
    assert distribution(SimpleFunction(((1.0, 1.0),), INF), 0.0) == math.inf


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.floats(min_value=1e-3, max_value=10.0)),
                max_size=12),
       st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=300, deadline=None)
def test_distribution_monotone_in_threshold(atoms, alpha):
    """mu({f >= a}) is non-increasing in a and bounded by the support mass."""
    f = SimpleFunction(tuple(atoms), INF)
    d1 = distribution(f, alpha)
    d2 = distribution(f, alpha + 1.0)
    assert d2 <= d1
    if alpha > 0.0:
        assert d1 <= math.fsum(m for _, m in f.atoms) + 1e-9


@given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                          st.floats(min_value=0.1, max_value=2.0)),
                min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_merge_preserves_support_mass(atoms):
    f = SimpleFunction(tuple(atoms), INF)
    support = math.fsum(m for _, m in f.atoms)
    assert support == pytest.approx(math.fsum(m for _, m in atoms), rel=1e-12)


def test_json_round_trip():
    obj = {"total_mass": "inf",
           "atoms": [{"value": 3.0, "mass": 1.0}, {"value": 1.0, "mass": 1.0}]}
    f = simple_function_from_json(obj)
    assert f.atoms == ((3.0, 1.0), (1.0, 1.0))
    assert not f.space.finite


def test_json_finite_mass():
    f = simple_function_from_json({"total_mass": 4, "atoms": [{"value": 1, "mass": 2}]})
    assert f.space.total_mass == 4.0


@pytest.mark.parametrize("obj", [
    {"atoms": []},
    {"total_mass": 1.0},
    {"total_mass": 1.0, "atoms": [], "extra": 1},
    {"total_mass": 1.0, "atoms": [{"value": 1.0}]},
    {"total_mass": 1.0, "atoms": [{"value": 1.0, "mass": 1.0, "x": 2}]},
    {"total_mass": 1.0, "atoms": [{"value": True, "mass": 1.0}]},
    {"total_mass": "huge", "atoms": []},
    {"total_mass": 1.0, "atoms": [[1.0, 1.0]]},
    {"total_mass": 1.0, "atoms": [{"value": 1.0, "mass": 3.0}]},  # support > mass
    [],
])
def test_json_schema_strict(obj):
    with pytest.raises(InputFormatError):
        simple_function_from_json(obj)


def test_read_simple_function(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        {"total_mass": "inf", "atoms": [{"value": 2.0, "mass": 0.5}]}))
    f = read_simple_function(str(path))
    assert f.atoms == ((2.0, 0.5),)


def test_read_errors_wrapped(tmp_path):
    with pytest.raises(InputFormatError):
        read_simple_function(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputFormatError):
        read_simple_function(str(bad))


# ------------------------------------------------- the reader against its oracle


def _oracle_canon(atoms, space):
    """``SimpleFunction.__post_init__`` as written before the whole-list
    passes: float checks per atom, then a sort of ``(value, mass)`` tuples."""
    merged = {}
    for pair in atoms:
        value, mass = pair
        v, m = float(value), float(mass)
        if math.isnan(v) or math.isinf(v) or v < 0.0:
            raise MeasureModelError(f"atom value must be finite and >= 0, got {value!r}")
        if math.isnan(m) or math.isinf(m) or m <= 0.0:
            raise MeasureModelError(f"atom mass must be finite and > 0, got {mass!r}")
        merged[v] = merged.get(v, 0.0) + m
    if any(math.isinf(m) for m in merged.values()):
        raise OverflowError("atom masses at one value sum beyond the double range")
    try:
        support = math.fsum(merged.values())
    except OverflowError:
        support = math.inf
    if space.finite and support > space.total_mass * (1.0 + 1e-12):
        raise MeasureModelError(
            f"atom masses sum to {support!r} > total_mass {space.total_mass!r}")
    return tuple(sorted(((v, m) for v, m in merged.items() if v > 0.0), reverse=True))


def _oracle_double(x, name):
    try:
        return float(x)
    except OverflowError:  # intended change: was an OverflowError (exit 3)
        raise InputFormatError(f"{name} is beyond the double range") from None


def _oracle_read(obj):
    """``simple_function_from_json`` as one Python loop per atom, with the two
    intended changes marked: a number beyond the double range is an input
    error naming its field, and so is a numeric ``total_mass`` that is."""
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
        total = _oracle_double(tm, "total_mass")
        if total == math.inf:  # intended change: was an infinite space
            raise InputFormatError("total_mass is beyond the double range")
    else:
        raise InputFormatError(f"total_mass must be a number or 'inf', got {tm!r}")
    raw_atoms = obj["atoms"]
    if not isinstance(raw_atoms, list):
        raise InputFormatError("'atoms' must be a list")
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
        atoms.append((_oracle_double(entry["value"], f"atom #{i} value"),
                      _oracle_double(entry["mass"], f"atom #{i} mass")))
    try:
        space = MeasureSpace(total)
        return _oracle_canon(tuple(atoms), space), space.total_mass
    except MeasureModelError as exc:
        raise InputFormatError(str(exc)) from exc


def _outcome(read, obj):
    """``(atoms, total_mass)`` of a read, or the exception's type and message."""
    try:
        result = read(obj)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return result


def _library_read(obj):
    f = simple_function_from_json(obj)
    return f.atoms, f.space.total_mass


class _Entry(dict):
    """A dict subclass, as a Python caller may pass: the passes skip it."""


_VALUES = st.one_of(
    st.integers(0, 10**6),
    st.floats(0.0, 1e308),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 2.0, 1e308]),
)
_MASSES = st.one_of(
    st.integers(1, 10**6),
    st.floats(5e-324, 1e308),
    st.sampled_from([5e-324, 1.0, 1e308]),  # two 1e308 masses overflow in their sum
)
_BAD_NUMBERS = st.sampled_from(
    [True, False, None, "1.0", [1.0], math.nan, math.inf, -math.inf, -1.0, -1, 0, 0.0,
     10**400, -10**400])
_TOTALS = st.one_of(
    st.just("inf"), st.floats(1e-300, 1e308), st.integers(1, 10**9),
    st.sampled_from([1e308, 10**400, math.inf, 1e400, 0, -1.0, math.nan, "huge", True, None]))


@st.composite
def _entries(draw):
    """A valid atom, or an entry with one kind of fault."""
    value, mass = draw(_VALUES), draw(_MASSES)
    kind = draw(st.sampled_from(
        ["valid"] * 6 + ["bad value", "bad mass", "list", "missing key", "extra key",
                         "subclass", "numpy"]))
    if kind == "bad value":
        value = draw(_BAD_NUMBERS)
    elif kind == "bad mass":
        mass = draw(_BAD_NUMBERS)
    elif kind == "list":
        return [value, mass]
    elif kind == "missing key":
        return draw(st.sampled_from([{"value": value}, {"mass": mass}, {}]))
    elif kind == "extra key":
        return {"value": value, "mass": mass, "weight": 1.0}
    elif kind == "subclass":
        return _Entry(value=value, mass=mass)
    elif kind == "numpy":
        return {"value": np.float64(value), "mass": np.float64(mass)}
    return {"value": value, "mass": mass}


@given(st.lists(_entries(), max_size=10), _TOTALS)
@settings(max_examples=600, deadline=None)
def test_reader_agrees_with_per_atom_oracle(entries, total):
    doc = {"total_mass": total, "atoms": entries}
    assert _outcome(_library_read, doc) == _outcome(_oracle_read, doc)


@given(st.lists(st.tuples(_VALUES, _MASSES), max_size=10), _TOTALS)
@settings(max_examples=300, deadline=None)
def test_reader_agrees_with_oracle_on_valid_atoms(pairs, total):
    # Documents the whole-list passes accept: ints, floats, duplicates,
    # zeros, subnormals and masses whose sum overflows.
    doc = {"total_mass": total, "atoms": [{"value": v, "mass": m} for v, m in pairs]}
    assert _outcome(_library_read, doc) == _outcome(_oracle_read, doc)


@pytest.mark.parametrize("key", ["value", "mass"])
def test_json_int_beyond_double_range_names_the_atom(key):
    atoms = [{"value": 1.0, "mass": 1.0}, {"value": 2, "mass": 3}]
    atoms[1][key] = 10**400
    with pytest.raises(InputFormatError, match=f"^atom #1 {key} is beyond the double range$"):
        simple_function_from_json({"total_mass": "inf", "atoms": atoms})


@pytest.mark.parametrize("total", [10**400, -10**400, 1e400, math.inf],
                         ids=["int_1e400", "int_-1e400", "float_1e400", "Infinity"])
def test_json_total_mass_beyond_double_range_rejected(total):
    with pytest.raises(InputFormatError, match="^total_mass is beyond the double range$"):
        simple_function_from_json({"total_mass": total, "atoms": []})


def test_json_inf_string_is_the_infinite_space():
    assert not simple_function_from_json({"total_mass": "inf", "atoms": []}).space.finite
    assert simple_function_from_json({"total_mass": 1e308, "atoms": []}).space.finite


def test_json_passes_keep_python_callers_inputs():
    # A dict subclass and numpy floats fail the exact-type passes; the
    # per-entry check accepts them as before.
    doc = {"total_mass": "inf", "atoms": [_Entry(value=2.0, mass=1.0),
                                          {"value": np.float64(1.0), "mass": 3}]}
    assert simple_function_from_json(doc).atoms == ((2.0, 1.0), (1.0, 3.0))


def test_read_10k_atoms_matches_direct_construction(tmp_path):
    rng = random.Random(15)
    pairs = [(rng.lognormvariate(0.0, 1.0), rng.lognormvariate(0.0, 1.0))
             for _ in range(10_000)]
    pairs[::500] = [(1, 2)] * len(pairs[::500])  # ints, merged at one value
    path = tmp_path / "bulk.json"
    path.write_text(json.dumps(
        {"total_mass": "inf", "atoms": [{"value": v, "mass": m} for v, m in pairs]}))
    f = read_simple_function(str(path))
    assert f.atoms == SimpleFunction(tuple(pairs), INF).atoms
    assert f.atoms == _oracle_canon(tuple(pairs), INF)
    assert len(f.atoms) == 10_000 - len(pairs[::500]) + 1
