"""The public signatures of the limit diagnostics stay free of tuning knobs:
the classifier gates, schedules, grids and tolerances are module constants.
The data types carry only the fields that define them: a member is its
family at one ``q``.  They are immutable named tuples."""

import inspect
import math

import pytest

import orlicz

SIGNATURES = {
    "classify": ["family", "space"],
    "classify_sequence": ["qs", "vs"],
    "limit_of_values": ["family", "t"],
    "limit_of_inverses": ["family", "y"],
    "growth_check": ["family", "phi", "k"],
    "growth_check_inverse_form": ["family", "phi", "k"],
    "tc_fixed_point_check": ["p", "q0", "q", "c", "t1"],
}

FIELDS = {
    "YoungFunction": ["family", "q"],
    "YoungFamily": ["label", "fn", "params", "q_min", "array_fn"],
    "MeasureSpace": ["total_mass"],
    "SimpleFunction": ["atoms", "space"],
    "NormResult": ["norm", "modular_at_norm", "iterations", "bracket"],
    "LimitEstimate": ["kind", "value", "liminf_est", "limsup_est", "evidence"],
    "AdmissibilityReport": ["verdict", "delta", "alpha", "beta", "context_mass",
                            "inverse_evidence", "value_evidence"],
    "MonotonicityReport": ["interval", "q_threshold", "witness", "per_q"],
    "FixedPointReport": ["fixed_point_ok", "residual", "predicate_failures"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_pinned(name):
    params = inspect.signature(getattr(orlicz, name)).parameters
    assert list(params) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_pinned(name):
    assert list(getattr(orlicz, name)._fields) == FIELDS[name]


def test_records_are_immutable():
    family = orlicz.make_family("power")
    psi = family.make(2.0)
    space = orlicz.MeasureSpace(math.inf)
    f = orlicz.SimpleFunction(((2.0, 1.0), (1.0, 3.0)), space)
    report = orlicz.classify(family, space)
    records = [family, psi, space, f, orlicz.luxemburg_norm(psi, f), report,
               report.inverse_evidence[0][1], orlicz.growth_check(family, psi, 5.0),
               orlicz.tc_fixed_point_check(1.0, 1.0, 2.0, 1.0, 1.0)]
    assert sorted(type(r).__name__ for r in records) == sorted(FIELDS)
    for record in records:
        # every field, and ``values``: SimpleFunction caches an array under
        # that name in its instance dict, and no other record has it
        for name in (*record._fields, "values"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)


def test_export_count():
    assert len(orlicz.__all__) == 42


def test_no_classifier_config_export():
    assert "ClassifierConfig" not in orlicz.__all__
    assert not hasattr(orlicz, "ClassifierConfig")
