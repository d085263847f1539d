"""Shared fixtures: the family catalog and a record of the norm solver's
probes.  The shared verification cases are in ``scripts/cases.py``."""

import pytest

import orlicz.luxemburg as luxemburg
from orlicz import make_family

# Built-in families in spec form; identity, the one not superlinear, is left out.
CATALOG_SPECS = (
    "power",
    "logbump",
    "logbump:p=2",
    "iterlog",
    "iterlog:N=2",
    "addie",
    "addie:N=2",
    "sinpiecewise",
    "powerlog_e",
)


@pytest.fixture(params=CATALOG_SPECS)
def catalog_family(request):
    return make_family(request.param)


class Probes(list):
    """The ``(lam, modular)`` pairs of the norm solver's probes, in order."""

    def take(self) -> list:
        """The pairs recorded since the last take.  None is a failure: it
        means the solver no longer evaluates the modular through the kernel
        this record wraps, and a count of its probes would read 0."""
        taken = self[:]
        self.clear()
        assert taken, "no probe recorded: luxemburg_norm bypassed luxemburg._modular_of"
        return taken


@pytest.fixture
def probes(monkeypatch):
    """Records every evaluation of each modular kernel that
    ``luxemburg._modular_of`` builds, which are all of a solve's probes."""
    record = Probes()
    build = luxemburg._modular_of

    def recorded(psi, f):
        kernel = build(psi, f)

        def at(lam):
            m = kernel(lam)
            record.append((lam, m))
            return m
        return at
    monkeypatch.setattr(luxemburg, "_modular_of", recorded)
    return record
