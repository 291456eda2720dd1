"""Settings shared by every hypothesis property in the suite.

Each property is derandomized, so every run draws the same examples; it has
no deadline, because one example can start a CLI run; and it has no example
database, so no run replays what an earlier one stored. A property states
only its own ``max_examples`` (and any health check it suppresses)."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None, database=None)
settings.load_profile("repeatable")
