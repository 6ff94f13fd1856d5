"""Test settings shared by the suite.

Property tests run a fixed, derandomized set of examples with no
deadline and no example database, so every machine runs the same
examples and no run depends on a local `.hypothesis/` directory.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None, database=None)
settings.load_profile("reproducible")
