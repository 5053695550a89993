"""Hypothesis profiles of the property tests.

The default profile is derandomized: every run, on every checkout, draws
the same examples, so a red run points at a change, not at a fresh draw.
``pytest --hypothesis-profile=explore`` draws fresh examples at random.
Each test keeps its own ``max_examples`` and ``@example`` cases under both.
"""

from hypothesis import settings

settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)
