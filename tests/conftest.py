"""Suite-wide settings: one deterministic hypothesis profile, and counters
of sympy's gcd cancel and of its polynomial division.

``derandomize`` derives every property test's examples from the test itself,
so each run of the suite checks the same cases and a failure reproduces.
There is no deadline because a test's speed varies from run to run and must
not decide whether it passes; ``max_examples`` keeps the property tests to a
few seconds in all.
"""

import pytest
from hypothesis import settings
from sympy.polys.rings import PolyElement

settings.register_profile("oak", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("oak")


def _counted(monkeypatch, name):
    """A list that grows by one on every call of ``PolyElement.<name>``."""
    calls = []
    method = getattr(PolyElement, name)

    def counting(self, *args):
        calls.append(None)
        return method(self, *args)

    monkeypatch.setattr(PolyElement, name, counting)
    return calls


@pytest.fixture
def cancel_calls(monkeypatch):
    """A list that grows by one on every call of sympy's gcd cancel."""
    return _counted(monkeypatch, "cancel")


@pytest.fixture
def div_calls(monkeypatch):
    """A list that grows by one on every call of sympy's polynomial
    division."""
    return _counted(monkeypatch, "div")
