"""Suite-wide settings: one deterministic hypothesis profile, and a counter
of sympy's gcd cancel.

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


@pytest.fixture
def cancel_calls(monkeypatch):
    """A list that grows by one on every call of sympy's gcd cancel."""
    calls = []
    cancel = PolyElement.cancel

    def counting(self, other):
        calls.append(None)
        return cancel(self, other)

    monkeypatch.setattr(PolyElement, "cancel", counting)
    return calls
