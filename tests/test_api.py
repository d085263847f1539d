"""The public signatures of the limit diagnostics stay free of tuning knobs:
the classifier gates, schedules, grids and tolerances are module constants.
The data types carry only the fields that define them: a member is its
family at one ``q``."""

import dataclasses
import inspect

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
    "MonotonicityReport": ["interval", "q_threshold", "witness", "per_q"],
    "FixedPointReport": ["fixed_point_ok", "residual", "predicate_failures"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_pinned(name):
    params = inspect.signature(getattr(orlicz, name)).parameters
    assert list(params) == SIGNATURES[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_dataclass_fields_pinned(name):
    fields = dataclasses.fields(getattr(orlicz, name))
    assert [f.name for f in fields] == FIELDS[name]


def test_export_count():
    assert len(orlicz.__all__) == 42


def test_no_classifier_config_export():
    assert "ClassifierConfig" not in orlicz.__all__
    assert not hasattr(orlicz, "ClassifierConfig")
