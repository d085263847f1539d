"""Shared fixtures: the family catalog, a few canonical inputs, and a record
of the norm solver's probes."""

import math

import pytest

import orlicz.luxemburg as luxemburg
from orlicz import MeasureSpace, SimpleFunction, YoungFamily, make_family

# Every built-in family in spec form, with the verdict its construction implies
# on an infinite-measure space.
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

STRICT_SPECS = CATALOG_SPECS  # identity is the lone non-strict entry


def vanishing_family():
    """``t^2 / (4 q^2)``: every member vanishes pointwise as q grows, so every
    inverse limit is infinite.  No catalog family does this."""
    return YoungFamily("vanish", lambda t, q: t * t / (4.0 * q * q), {}, q_min=1.0)


@pytest.fixture(scope="session")
def infinite_space():
    return MeasureSpace(math.inf)


@pytest.fixture
def two_atom(infinite_space):
    """The two-step function used throughout the convergence experiments."""
    return SimpleFunction(((3.0, 1.0), (1.0, 1.0)), infinite_space)


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
