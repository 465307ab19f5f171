"""Liveness of the back-trace protocol under message loss.

Safety under loss is covered elsewhere; this checks the *liveness* half of
section 4.6: thanks to frame and outcome timeouts, every started trace
reaches a verdict and releases its state -- no frame, visited mark, or trace
record lingers forever, whatever fraction of messages the network eats.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GcConfig
from repro.net.faults import FaultPlan
from repro.workloads import build_ring_cycle

from tests.conftest import examples, make_sim



@given(
    st.integers(min_value=2, max_value=6),    # ring size
    st.floats(min_value=0.0, max_value=0.9),  # loss probability
    st.integers(min_value=0, max_value=500),  # seed
)
@settings(max_examples=examples(40), deadline=None)
def test_every_started_trace_terminates_and_cleans_up(n_sites, drop, seed):
    sites = [f"s{i}" for i in range(n_sites)]
    sim = make_sim(
        seed=seed,
        sites=sites,
        gc=GcConfig(backtrace_timeout=40.0),
        fault_plan=FaultPlan.loss(drop),
    )
    workload = build_ring_cycle(sim, sites)
    workload.make_garbage(sim)
    # Force suspicion and compute insets so a trace can start immediately.
    for site in sim.sites.values():
        for entry in site.inrefs.entries():
            for source in entry.sources:
                entry.sources[source] = 9
    for site_id in sites:
        sim.sites[site_id].run_local_trace()
    sim.settle()
    started = []
    for site in sim.sites.values():
        for entry in site.outrefs.suspected_entries():
            trace_id = site.engine.start_trace(entry.target)
            if trace_id is not None:
                started.append(trace_id)
    # Give the system ample time relative to the timeouts.
    sim.run_for(20 * 40.0)
    sim.settle()
    for site in sim.sites.values():
        engine = site.engine
        assert engine.active_trace_count == 0
        assert not engine._frames, f"frames linger at {site.site_id}"
        assert not engine._active_by_ioref
        for entry in list(site.inrefs.entries()) + list(site.outrefs.entries()):
            assert not entry.visited, f"visited marks linger at {site.site_id}"
