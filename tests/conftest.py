"""Hypothesis settings for the suite: every phase but `explain`, and one
failure shrunk per property. On a failing property, the explain phase (it
imports libcst) can run for minutes and take over a gigabyte before the
failure is reported; without it the failure is reported as soon as
shrinking ends. A property that fails in two distinct ways would shrink
both; `report_multiple_bugs=False` shrinks and reports the first only."""

from hypothesis import Phase, settings

settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain],
                          report_multiple_bugs=False)
settings.load_profile("no-explain")
