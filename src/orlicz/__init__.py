"""Exact Luxemburg norms of simple functions and limit diagnostics for
one-parameter Young-function families.

Every public name is exported here.  The norm side (``orlicz.young``,
``orlicz.measure``, ``orlicz.luxemburg``) is imported with the package; the
limit diagnostics of ``orlicz.admissibility`` are imported on the first read
of one of their names, such as ``orlicz.classify``, so ``import orlicz`` and
the norm paths never compile them.
"""

from .young import (
    BracketError,
    DomainError,
    FamilySpecError,
    ValidationReport,
    Violation,
    YoungFamily,
    YoungFunction,
    addie_family,
    identity_family,
    iterlog_family,
    logbump_family,
    make_family,
    power_family,
    powerlog_e_family,
    sinpiecewise_family,
    validate,
)
from .measure import (
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
from .luxemburg import (
    NormResult,
    chebyshev_bound,
    indicator_norm,
    luxemburg_norm,
    modular,
)

# No norm needs the limit diagnostics, so ``orlicz.admissibility`` is imported
# when one of its names is first read (PEP 562); the name is then bound here
# like the others, and later reads cost nothing.
_ADMISSIBILITY = frozenset((
    "AdmissibilityReport",
    "FixedPointReport",
    "LimitEstimate",
    "MonotonicityReport",
    "classify",
    "classify_sequence",
    "geometric_schedule",
    "growth_check",
    "growth_check_inverse_form",
    "limit_of_inverses",
    "limit_of_values",
    "logbump_transfer",
    "phase_locked_schedule",
    "tc_fixed_point_check",
    "tc_map",
))


def __getattr__(name: str):
    if name not in _ADMISSIBILITY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import admissibility
    globals()[name] = value = getattr(admissibility, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ADMISSIBILITY})


__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "BracketError",
    "DomainError",
    "FamilySpecError",
    "FixedPointReport",
    "InputFormatError",
    "LimitEstimate",
    "MeasureModelError",
    "MeasureSpace",
    "MonotonicityReport",
    "NormResult",
    "SimpleFunction",
    "ValidationReport",
    "Violation",
    "YoungFamily",
    "YoungFunction",
    "addie_family",
    "chebyshev_bound",
    "classify",
    "classify_sequence",
    "distribution",
    "ess_sup",
    "geometric_schedule",
    "growth_check",
    "growth_check_inverse_form",
    "identity_family",
    "indicator_norm",
    "iterlog_family",
    "limit_of_inverses",
    "limit_of_values",
    "logbump_family",
    "logbump_transfer",
    "luxemburg_norm",
    "make_family",
    "modular",
    "phase_locked_schedule",
    "power_family",
    "powerlog_e_family",
    "read_simple_function",
    "simple_function_from_json",
    "sinpiecewise_family",
    "tc_fixed_point_check",
    "tc_map",
    "truncate",
    "validate",
    "__version__",
]
