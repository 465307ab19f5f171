"""F3 -- Figure 3: a back trace that branches.

A call at inref c forks parallel branches to sites P and Q; one branch hits
an ioref already visited by the other and returns Garbage from that dead end,
while the branch that reaches the long root path returns Live -- and Live
wins.  We measure the fork width and verify the verdict and that visited
marks are cleaned up afterwards.
"""

import pytest

from repro.core.backtrace.messages import TraceOutcome
from repro.harness.report import Table
from repro.harness.scenarios import build_figure3


def run_branching_trace():
    scenario = build_figure3()
    sim = scenario.sim
    # Suspect the a/b/c/d region but keep the root path's final hop clean,
    # as in the figure ("long path from root").
    for site_id in ("P", "Q", "R", "T"):
        for entry in sim.site(site_id).inrefs.entries():
            for source in entry.sources:
                entry.table.set_source(entry.target, source, 9)
    for site_id in ("P", "Q", "R", "S", "T"):
        sim.sites[site_id].run_local_trace()
    sim.settle()
    # Keep the S->a source clean: the root path.
    sim.site("P").inrefs.set_source(scenario["a"], "S", 1)
    before = sim.metrics.snapshot()
    # The trace "from d": starts at R's outref for d, whose inset is {c};
    # the call at inref c forks branches to both of its sources, P and Q.
    trace_id = sim.site("R").engine.start_trace(scenario["d"])
    assert trace_id is not None
    sim.settle()
    delta = sim.metrics.snapshot().diff(before)
    verdict = sim.trace_outcomes[-1][3]
    # A Live short-circuit reports only to the participants it heard from;
    # branches still in flight clear their marks via the conservative
    # outcome timeout (section 4.6) -- run past it before counting.
    sim.run_for(3 * sim.config.gc.backtrace_timeout)
    marks_left = sum(
        len(entry.visited)
        for site in sim.sites.values()
        for entry in list(site.inrefs.entries()) + list(site.outrefs.entries())
    )
    return scenario, delta, verdict, marks_left


def test_fig3_branching_returns_live(benchmark, record_table):
    scenario, delta, verdict, marks_left = benchmark.pedantic(
        run_branching_trace, rounds=1, iterations=1
    )
    table = Table(
        "F3 (Figure 3): branching back trace over a live structure",
        ["metric", "value"],
    )
    table.add_row("verdict", verdict.value)
    table.add_row("back calls sent", delta.get("messages.BackCall", 0))
    table.add_row("back replies", delta.get("messages.BackReply", 0))
    table.add_row("visited marks left (after outcome + timeouts)", marks_left)
    record_table("fig3_branching", table)
    assert verdict is TraceOutcome.LIVE
    # The trace forked: more than one call crossed the network.
    assert delta.get("messages.BackCall", 0) >= 2
    assert marks_left == 0  # outcome + timeouts clear every visited mark
    # Nothing was flagged garbage anywhere.
    for site in scenario.sim.sites.values():
        assert not site.inrefs.garbage_targets()
