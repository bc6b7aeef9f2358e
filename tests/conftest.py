"""Suite-wide settings: one deterministic hypothesis profile.

``derandomize`` derives every property test's examples from the test itself,
so each run of the suite checks the same cases and a failure reproduces.
There is no deadline because a test's speed varies from run to run and must
not decide whether it passes; ``max_examples`` keeps the property tests to a
few seconds in all.
"""

from hypothesis import settings

settings.register_profile("oak", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("oak")
