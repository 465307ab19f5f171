"""Tests for the shared collector-comparison driver (repro.harness.comparison)."""

import pytest

from repro.harness.comparison import (
    BASELINES,
    CYCLE_SITES,
    PER_SITE_BACKENDS,
    PROTOCOL_KINDS,
    build_scenario,
    run_with_collector,
)


def test_scenario_shape():
    sim, workload = build_scenario()
    assert len(sim.sites) == 8
    assert {m.site for m in workload.cycle} == set(CYCLE_SITES)
    from repro.analysis import Oracle

    garbage = Oracle(sim).garbage_set()
    assert set(workload.cycle) <= garbage


def test_backtrace_row_locality():
    stats = run_with_collector("backtrace")
    assert stats["collected"]
    assert stats["involved"] == sorted(CYCLE_SITES)
    assert stats["messages"] == 5  # 2E + (N-1) with E=2, N=2


def test_unknown_collector_rejected():
    with pytest.raises(ValueError):
        run_with_collector("nonsense")


def test_every_row_is_a_backend_or_a_baseline_driver():
    assert set(PROTOCOL_KINDS) == set(PER_SITE_BACKENDS) | set(BASELINES)


def test_protocol_kinds_cover_all_payloads():
    """Each collector's message kinds resolve to real payload classes."""
    import repro.baselines.centralservice as central
    import repro.baselines.globaltrace as glob
    import repro.baselines.grouptrace as group
    import repro.baselines.hughes as hughes
    import repro.baselines.migration as migration
    import repro.core.backtrace.messages as bt
    import repro.core.termination as term

    modules = [central, glob, group, hughes, migration, bt, term]
    known = set()
    for module in modules:
        for name in dir(module):
            attr = getattr(module, name)
            if isinstance(attr, type):
                known.add(name)
    for kinds in PROTOCOL_KINDS.values():
        for kind in kinds:
            assert kind in known, f"{kind} is not a known payload class"
