import sys

import pytest

from tauwork import operators, scenarios


@pytest.fixture
def decompositions(monkeypatch):
    """The operators passed to ``spectral_decompose`` while the test runs.

    The counter replaces the function in every ``tauwork`` module that bound
    it, so calls made inside the package are counted too.
    """
    calls = []
    original = operators.spectral_decompose

    def counting(h):
        calls.append(h)
        return original(h)

    for name, module in list(sys.modules.items()):
        if name == "tauwork" or name.startswith("tauwork."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def builds(monkeypatch):
    """The ``system`` sections that ``scenarios.build_system`` turns into
    spectra while the test runs."""
    calls = []
    original = scenarios.build_system

    def counting(system):
        calls.append(system)
        return original(system)

    monkeypatch.setattr(scenarios, "build_system", counting)
    return calls
