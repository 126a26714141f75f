"""Tier-1 test configuration.

Every property test runs under one derandomized hypothesis profile, loaded
here before any test module is imported, so the examples a test draws do
not depend on the collection order or on the run.
"""

from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=100)
settings.load_profile("suite")
