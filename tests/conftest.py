"""Hypothesis profiles of the property tests.

The default profile draws from one fixed seed, ``--hypothesis-seed=0`` in
the pytest ``addopts`` of ``pyproject.toml``, and keeps no example
database: every run, on every checkout, draws the same examples whatever
the tests' source text, so a red run points at a change, not at a fresh
draw or an edited comment.  ``pytest --hypothesis-profile=explore
--hypothesis-seed=N`` draws the examples of seed N instead.  Each test
keeps its own ``max_examples`` and ``@example`` cases under both.
"""

from hypothesis import settings

settings.register_profile("default", derandomize=False, database=None)
settings.register_profile("explore", derandomize=False)
