"""The public signatures of the limit diagnostics stay free of tuning knobs:
the classifier gates, schedules, grids and tolerances are module constants.
The data types carry only the fields that define them: a member is its
family at one ``q``.  They are immutable named tuples."""

import inspect
import math
import re

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


_PSI = orlicz.power_family().make(2.0)
_F = orlicz.SimpleFunction(((2.0, 1.0),), orlicz.MeasureSpace(math.inf))
# Every argument that must be positive and finite, and a call that passes it.
POSITIVE = {
    "lambda": lambda x: orlicz.modular(_PSI, _F, x),
    "mass": lambda x: orlicz.indicator_norm(_PSI, x),
    "alpha": lambda x: orlicz.chebyshev_bound(_PSI, _F, x),
    "t": lambda x: orlicz.limit_of_values(_PSI.family, x),
    "y": lambda x: orlicz.limit_of_inverses(_PSI.family, x),
    "k": lambda x: orlicz.growth_check(_PSI.family, _PSI, x),
    "c": lambda x: orlicz.tc_fixed_point_check(1.0, 1.0, 3.0, x, 1.0),
    "t1": lambda x: orlicz.tc_fixed_point_check(1.0, 1.0, 3.0, 1.0, x),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(POSITIVE))
def test_positive_arguments_share_one_rule(name, bad):
    message = f"{name} must be positive and finite, got {bad!r}"
    with pytest.raises(orlicz.DomainError, match=f"^{re.escape(message)}$"):
        POSITIVE[name](bad)


# Every argument converted by ``float``, named as its DomainError names it,
# and a call that passes it.  The positive ones above share ``_positive``.
FLOAT_ARGUMENTS = {
    **POSITIVE,
    "power: q": lambda x: orlicz.make_family("power").make(x),
    "power: q (grid)": lambda x: _PSI.family.evaluate_grid([1.0], [x]),
    "power: t": lambda x: _PSI.family.evaluate_grid([1.0, x], [2.0]),
    "power: y": lambda x: _PSI.family.inverse_grid([x], [2.0]),
    "power[q=2]: t": lambda x: _PSI(x),
    "power[q=2]: y": lambda x: _PSI.inverse(x),
    "q0": lambda x: orlicz.logbump_transfer(1.0, x, 3.0, 1.0),
    "q (transfer)": lambda x: orlicz.logbump_transfer(1.0, 1.0, x, 1.0),
    "t (transfer)": lambda x: orlicz.logbump_transfer(1.0, 1.0, 3.0, x),
}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", sorted(FLOAT_ARGUMENTS))
def test_ints_beyond_the_doubles_are_domain_errors(name, sign):
    # float(10**400) raises OverflowError, an ArithmeticError, which the
    # package keeps for numeric failure; inf in the same place is an input
    # error, and so is this int.
    message = f"{name.partition(' (')[0]} is beyond the double range"
    with pytest.raises(orlicz.DomainError, match=f"^{re.escape(message)}$"):
        FLOAT_ARGUMENTS[name](sign * 10 ** 400)


_BIG = 10 ** 400
_QS = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
_VS = [1.0 + 1.0 / q for q in _QS]
_SEQUENCE_RULE = "qs must be finite, positive and strictly increasing"
# Inputs that raised a numeric failure (OverflowError, ZeroDivisionError),
# truncated silently or returned a verdict; each is an input error, with the
# class of its module.
INPUT_ERRORS = {
    "logbump p": (lambda: orlicz.logbump_family(_BIG), orlicz.FamilySpecError,
                  "logbump: p is beyond the double range"),
    "iterlog p": (lambda: orlicz.iterlog_family(1, _BIG), orlicz.FamilySpecError,
                  "iterlog: p is beyond the double range"),
    "addie p": (lambda: orlicz.addie_family(1, _BIG), orlicz.FamilySpecError,
                "addie: p is beyond the double range"),
    "iterlog N=2.7": (lambda: orlicz.iterlog_family(2.7), orlicz.FamilySpecError,
                      "iterlog requires integer N >= 1, got 2.7"),
    "iterlog N=True": (lambda: orlicz.iterlog_family(True), orlicz.FamilySpecError,
                       "iterlog requires integer N >= 1, got True"),
    "addie N=2.0": (lambda: orlicz.addie_family(2.0), orlicz.FamilySpecError,
                    "addie requires integer N >= 1, got 2.0"),
    "sequence big q": (lambda: orlicz.classify_sequence([_BIG], [1.0]), orlicz.DomainError,
                       "qs and vs must be within the double range"),
    "sequence big v": (lambda: orlicz.classify_sequence([1.0], [-_BIG]), orlicz.DomainError,
                       "qs and vs must be within the double range"),
    "sequence equal q": (lambda: orlicz.classify_sequence([1.0] * 8, _VS), orlicz.DomainError,
                         _SEQUENCE_RULE),
    "sequence decreasing q": (lambda: orlicz.classify_sequence(_QS[::-1], _VS),
                              orlicz.DomainError, _SEQUENCE_RULE),
    "sequence nan q": (lambda: orlicz.classify_sequence(_QS[:4] + [math.nan] + _QS[5:], _VS),
                       orlicz.DomainError, _SEQUENCE_RULE),
    "sequence negative q": (lambda: orlicz.classify_sequence([-q for q in _QS[::-1]], _VS),
                            orlicz.DomainError, _SEQUENCE_RULE),
    "sequence inf q": (lambda: orlicz.classify_sequence(_QS[:-1] + [math.inf], _VS),
                       orlicz.DomainError, _SEQUENCE_RULE),
    "distribution alpha": (lambda: orlicz.distribution(_F, _BIG), orlicz.MeasureModelError,
                           "alpha is beyond the double range"),
    "atom value": (lambda: orlicz.SimpleFunction(((_BIG, 1.0),), _F.space),
                   orlicz.MeasureModelError, "atom value or mass is beyond the double range"),
    "atom mass": (lambda: orlicz.SimpleFunction(((1.0, 1.0), (2.0, _BIG)), _F.space),
                  orlicz.MeasureModelError, "atom value or mass is beyond the double range"),
}


@pytest.mark.parametrize("name", list(INPUT_ERRORS))
def test_input_errors_not_numeric_failures(name):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_export_count():
    assert len(orlicz.__all__) == 39


def test_no_classifier_config_export():
    assert "ClassifierConfig" not in orlicz.__all__
    assert not hasattr(orlicz, "ClassifierConfig")
