"""The public signatures of the limit diagnostics stay free of tuning knobs:
the classifier gates, schedules, grids and tolerances are module constants."""

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
    "validate": ["psi", "grid"],
    "tc_fixed_point_check": ["p", "q0", "q", "c", "t1", "grid_hi"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_pinned(name):
    params = inspect.signature(getattr(orlicz, name)).parameters
    assert list(params) == SIGNATURES[name]


def test_no_classifier_config_export():
    assert "ClassifierConfig" not in orlicz.__all__
    assert not hasattr(orlicz, "ClassifierConfig")
