"""One Hypothesis profile for the suite: the same examples on every run,
no example database and no deadline.  A test's ``@settings`` sets only its
``max_examples``.

The explain phase is left out: after shrinking it reruns the failing example
hundreds of times and pytest formats each failure, so a failing property of
test_cli.py took over a minute to report on a 2-core x86-64 host, and 4 s
without it."""

from hypothesis import Phase, settings

settings.register_profile("foliata", derandomize=True, database=None, deadline=None,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("foliata")
