import sys

import pytest

from tauwork import operators


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
