"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run (derandomize), records none (no example
database, so no .hypothesis/ directory) and has no deadline, since the
suite's timings vary with the machine. A test's own settings give only
what differs: max_examples and suppressed health checks."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
