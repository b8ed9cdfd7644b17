"""Every hypothesis property of the suite runs derandomised and with no
example database, so that a run is reproducible: the examples depend on
the test alone, not on the run or on earlier runs.  Each test keeps its own
max_examples and deadline."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
