"""E6 -- Locality comparison: back tracing vs the section-7 baselines.

One scenario, seven collectors.  A two-site garbage cycle (on s0, s1) lives
in an 8-site system whose other sites hold live inter-site structure.
Measured per collector:

- rounds of its own driving loop until the cycle is collected;
- messages its protocol spent;
- **sites involved** in its protocol traffic (the locality property: back
  tracing and migration touch only the cycle's sites; global tracing and
  Hughes touch everyone; group tracing touches the group, which can exceed
  the cycle);
- whether the cycle is still collected when a bystander site (not on the
  cycle) has crashed.

Expected shape (paper sections 1, 7): back tracing collects with the fewest
sites and small constant-size messages; migration also has locality but pays
object-sized messages; global/Hughes involve all sites and stall under a
single crash; group tracing sits in between.

The trial-deletion ("subgraph tracing") row is the first-class
``collector="termination"`` backend, so this table is also the head-to-head
of the two per-site backends: both keep locality here, and a trial spends a
mark wave, a rescue wave and per-phase credit acks where one back trace
spends 2E + (N-1) constant-size messages.  The other half of E22, the
oracle-audited differential matrix, is ``python -m repro diff``.

The driver lives in :mod:`repro.harness.comparison` (shared with
``examples/baseline_shootout.py``).
"""

import pytest

from repro.harness.comparison import (
    CYCLE_SITES,
    N_SITES,
    PROTOCOL_KINDS,
    run_with_collector,
)
from repro.harness.report import Table

ROWS = ("backtrace", "migration", "group", "termination", "central", "hughes", "global")


@pytest.mark.parametrize("name", sorted(PROTOCOL_KINDS))
def test_collector_collects_cycle(benchmark, name):
    stats = benchmark.pedantic(
        run_with_collector, args=(name,), rounds=1, iterations=1
    )
    assert stats["collected"], f"{name} failed to collect the cycle"


def test_e6_comparison_table(benchmark, record_table):
    def run():
        rows = []
        for name in ROWS:
            healthy = run_with_collector(name)
            crashed = run_with_collector(name, crash_bystander=True)
            rows.append((name, healthy, crashed))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E6: collecting a 2-site cycle in an 8-site system (one crashed bystander in the last column)",
        [
            "collector",
            "rounds",
            "protocol msgs",
            "msg units",
            "sites involved",
            "collected",
            "collected w/ crash",
        ],
    )
    results = {}
    for name, healthy, crashed in rows:
        results[name] = (healthy, crashed)
        table.add_row(
            name,
            healthy["rounds"] if healthy["rounds"] is not None else "-",
            healthy["messages"],
            healthy["units"],
            len(healthy["involved"]),
            "yes" if healthy["collected"] else "no",
            "yes" if crashed["collected"] else "NO",
        )
    record_table("e6_comparison", table)

    # The paper's qualitative claims, as hard assertions.
    bt_healthy, bt_crashed = results["backtrace"]
    assert bt_healthy["collected"] and bt_crashed["collected"]
    assert set(bt_healthy["involved"]) == set(CYCLE_SITES)  # locality

    mig_healthy, mig_crashed = results["migration"]
    assert mig_healthy["collected"] and mig_crashed["collected"]
    assert set(mig_healthy["involved"]) <= set(CYCLE_SITES)
    # Few messages, but each carries a whole object: migration's hidden cost.
    assert mig_healthy["units"] >= 20
    assert bt_healthy["units"] == bt_healthy["messages"]  # constant-size msgs

    grp_healthy, grp_crashed = results["group"]
    assert grp_healthy["collected"] and grp_crashed["collected"]

    glob_healthy, glob_crashed = results["global"]
    assert glob_healthy["collected"]
    assert not glob_crashed["collected"]          # one crash stalls everyone
    assert len(glob_healthy["involved"]) == N_SITES

    hug_healthy, hug_crashed = results["hughes"]
    assert hug_healthy["collected"]
    assert not hug_crashed["collected"]           # threshold held down
    assert len(hug_healthy["involved"]) == N_SITES

    # Trial deletion, as the termination backend: locality on this workload,
    # healthy and with the crashed bystander (no live pointees to drag in),
    # but chattier than the back trace -- mark + rescue waves plus per-phase
    # credit acks.  Target lists can make units exceed messages, yet they
    # stay far from migration's object-sized cost.
    tm_healthy, tm_crashed = results["termination"]
    assert tm_healthy["collected"] and tm_crashed["collected"]
    for stats in (bt_healthy, bt_crashed, tm_healthy, tm_crashed):
        assert set(stats["involved"]) == set(CYCLE_SITES)
    assert bt_healthy["messages"] == 5  # 2E + (N-1) with E=2, N=2
    assert tm_healthy["messages"] > bt_healthy["messages"]
    assert tm_healthy["messages"] <= tm_healthy["units"] <= 4 * tm_healthy["messages"]

    cent_healthy, cent_crashed = results["central"]
    assert cent_healthy["collected"]
    assert not cent_crashed["collected"]          # one silent site stalls all
    assert len(cent_healthy["involved"]) == N_SITES
