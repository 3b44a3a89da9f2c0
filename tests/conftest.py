"""Test-suite settings shared by every test module.

Hypothesis draws its examples from a seed derived from each test, so two
runs of the same tree test the same inputs and a failure one run finds,
the next run finds again.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
