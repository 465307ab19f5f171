"""F2 -- Figure 2: insets of suspected outrefs and the start-from-outref rule.

The figure's point: a back trace started from *inref* a would miss the path
from inref b to object a, but one started from *outref* c sees inset {a, b}
and finds every backward path.  We verify the computed insets match the
figure and that the whole interlocked structure is collected.
"""

import pytest

from repro.analysis import Oracle
from repro.harness.report import Table
from repro.harness.scenarios import build_figure2


def compute_insets():
    scenario = build_figure2()
    sim = scenario.sim
    for entry in sim.site("Q").inrefs.entries():
        for source in entry.sources:
            entry.table.set_source(entry.target, source, 9)
    sim.site("Q").run_local_trace()
    q = sim.site("Q")
    return scenario, {
        "c": q.outrefs.require(scenario["c"]).inset,
        "d": q.outrefs.require(scenario["d"]).inset,
    }


def collect_structure(max_rounds=40):
    scenario = build_figure2()
    sim = scenario.sim
    oracle = Oracle(sim)
    for round_number in range(1, max_rounds + 1):
        sim.run_gc_round()
        oracle.check_safety()
        if not oracle.garbage_set():
            return scenario, round_number
    return scenario, None


def test_fig2_insets_match_figure(benchmark, record_table):
    scenario, insets = benchmark.pedantic(compute_insets, rounds=1, iterations=1)
    table = Table(
        "F2 (Figure 2): computed insets of Q's suspected outrefs",
        ["outref", "inset (computed)", "inset (figure)"],
    )
    names = {scenario["a"]: "a", scenario["b"]: "b"}
    table.add_row(
        "c", "{" + ",".join(sorted(names[x] for x in insets["c"])) + "}", "{a,b}"
    )
    table.add_row(
        "d", "{" + ",".join(sorted(names[x] for x in insets["d"])) + "}", "{b}"
    )
    record_table("fig2_insets", table)
    assert insets["c"] == {scenario["a"], scenario["b"]}
    assert insets["d"] == {scenario["b"]}


def test_fig2_structure_collected(benchmark, record_table):
    scenario, rounds = benchmark.pedantic(collect_structure, rounds=1, iterations=1)
    assert rounds is not None
    table = Table(
        "F2 (Figure 2): interlocked two-cycle garbage structure",
        ["metric", "value"],
    )
    table.add_row("objects", 4)
    table.add_row("sites", 3)
    table.add_row("rounds to full collection", rounds)
    record_table("fig2_collection", table)
