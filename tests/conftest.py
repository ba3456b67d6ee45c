"""Hypothesis profiles.

``pytest --hypothesis-profile=ci`` loads the ``ci`` profile: examples are
derived from each test's name rather than drawn at random, so a run
repeats exactly, and no test has a deadline.  Without the option the
default profile applies.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
