"""Property tests draw the same examples on every run.

The profile seeds hypothesis from each test's own definition (and so keeps
no example database), which leaves the suite's outcome a function of the
code alone.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
