"""Exact Luxemburg norms of simple functions and limit diagnostics for
one-parameter Young-function families.

Every public name is exported here, and each is written once.  The norm
side (``orlicz.young``, ``orlicz.measure``, ``orlicz.luxemburg``) is
imported with the package and republished whole from the ``__all__`` of
each module.  The limit diagnostics of ``orlicz.admissibility`` are imported
on the first read of one of their names, such as ``orlicz.classify``, so
``import orlicz`` and the norm paths never compile them; their names are
written in ``_ADMISSIBILITY`` below, the one list, from which the module
builds its own ``__all__``, since reading that would import it.
"""

from . import luxemburg, measure, young
from .young import *
from .measure import *
from .luxemburg import *

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
    "growth_check",
    "growth_check_inverse_form",
    "limit_of_inverses",
    "limit_of_values",
    "logbump_transfer",
    "tc_fixed_point_check",
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

__all__ = ["__version__", *sorted(_ADMISSIBILITY)]
__all__ += young.__all__
__all__ += measure.__all__
__all__ += luxemburg.__all__
