"""Hypothesis settings for the suite: every phase but `explain`. On a
failing property, the explain phase (it imports libcst) can run for minutes
and take over a gigabyte before the failure is reported; without it the
failure is reported as soon as shrinking ends."""

from hypothesis import Phase, settings

settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")
