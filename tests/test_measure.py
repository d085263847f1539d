"""Measure-space model: canonicalization, distribution sums, JSON loading."""

import json
import math

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
    truncate,
)

INF = MeasureSpace(math.inf)


def test_space_rejects_nonpositive_mass():
    for bad in (0.0, -1.0, math.nan):
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


def test_atom_arrays_follow_canonical_order():
    f = SimpleFunction(((1.0, 2.0), (5.0, 3.0), (1.0, 0.5)), INF)
    assert f.values.tolist() == [5.0, 1.0]
    assert f.masses.tolist() == [3.0, 2.5]
    assert not f.values.flags.writeable and not f.masses.flags.writeable


def test_distribution_examples():
    f = SimpleFunction(((3.0, 1.0), (1.0, 2.0)), INF)
    assert distribution(f, 2.0).mass == 1.0
    assert distribution(f, 1.0).mass == 3.0
    assert distribution(f, 4.0).mass == 0.0


def test_distribution_at_zero_is_whole_space():
    f = SimpleFunction(((3.0, 1.0),), MeasureSpace(10.0))
    assert distribution(f, 0.0).mass == 10.0
    assert distribution(SimpleFunction(((1.0, 1.0),), INF), 0.0).mass == math.inf


def test_truncate_clamps_and_merges():
    f = SimpleFunction(((5.0, 1.0), (2.0, 1.0)), INF)
    assert truncate(f, 3.0).atoms == ((3.0, 1.0), (2.0, 1.0))
    g = SimpleFunction(((5.0, 1.0), (4.0, 1.0)), INF)
    assert truncate(g, 3.0).atoms == ((3.0, 2.0),)


def test_truncate_above_sup_is_noop():
    f = SimpleFunction(((5.0, 1.0), (2.0, 1.0)), INF)
    assert truncate(f, 5.0).atoms == f.atoms


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.floats(min_value=1e-3, max_value=10.0)),
                max_size=12),
       st.floats(min_value=0.0, max_value=120.0))
@settings(max_examples=300, deadline=None)
def test_distribution_monotone_in_threshold(atoms, alpha):
    """mu({f >= a}) is non-increasing in a and bounded by the support mass."""
    f = SimpleFunction(tuple(atoms), INF)
    d1 = distribution(f, alpha).mass
    d2 = distribution(f, alpha + 1.0).mass
    assert d2 <= d1
    if alpha > 0.0:
        assert d1 <= f.support_mass + 1e-9


@given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                          st.floats(min_value=0.1, max_value=2.0)),
                min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_merge_preserves_support_mass(atoms):
    f = SimpleFunction(tuple(atoms), INF)
    assert f.support_mass == pytest.approx(math.fsum(m for _, m in atoms), rel=1e-12)


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
