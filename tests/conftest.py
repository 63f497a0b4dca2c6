"""Hypothesis settings for the suite: every phase but `explain`, and one
failure shrunk per property. On a failing property, the explain phase (it
imports libcst) can run for minutes and take over a gigabyte before the
failure is reported; without it the failure is reported as soon as
shrinking ends. A property that fails in two distinct ways would shrink
both; `report_multiple_bugs=False` shrinks and reports the first only.

`invoke` runs one `bpusim` command line in the test's process, and
`victim_run` runs a victim through the engine, with no memo."""

import contextlib
import io
from typing import NamedTuple

from hypothesis import Phase, settings

from bpusim import engine as eng
from bpusim.cli import main

settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain],
                          report_multiple_bugs=False)
settings.load_profile("no-explain")


class Invocation(NamedTuple):
    exit_code: int
    output: str


def invoke(args) -> Invocation:
    """The exit status of `bpusim args` and all it printed, stdout and stderr
    in the order written. An exception that `main` does not turn into an
    exit status propagates, so a traceback fails the calling test."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(list(args), standalone_mode=False)
    return Invocation(code, sink.getvalue())


def victim_run(layout, policy, predictor, env, seed):
    """A victim run on `predictor`: its preamble in one kernel call, which
    ends a channel's setup chain, then its body in one engine run, which
    `VictimLayout.transmit` replays from its memo. Returns the body run's
    `RunResult`."""
    predictor.execute(layout.preamble)
    return eng.run(layout.program, layout.schedule, policy, predictor, env=env, seed=seed)[0]
