"""Tier-1 test configuration.

Every property test runs under one derandomized hypothesis profile, loaded
here before any test module is imported, so the examples a test draws do
not depend on the collection order or on the run.  "suite" draws 100
examples per test; "deep" draws 3000, for the min-norm kernels and the
stacked Hausdorff solve, whose failures can hide from 100 draws:

    HYPOTHESIS_PROFILE=deep python -W error::RuntimeWarning -m pytest \
        tests/test_geometry.py \
        -k "min_norm or simplex or triangle or tetra or hausdorff or excess"
"""

import os

from hypothesis import settings

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=100)
settings.register_profile("deep", deadline=None, derandomize=True,
                          max_examples=3000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))
