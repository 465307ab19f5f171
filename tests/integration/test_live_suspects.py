"""Live suspects stop generating back traces (section 4.3).

A live ring whose distances exceed the back threshold is suspected, so it is
back-traced and found Live.  The paper's guard against tracing it forever is
the back-threshold bump: every visit raises each visited ioref's threshold
by ``back_threshold_increment``, and once the thresholds sit above the
ring's (stable) distances no trigger fires again.  The seeded scenario must
collect all garbage and keep every live object, with the oracle auditing
safety after every round; its digests are held by ``test_golden_digests.py``
(section ``data_plane``, legs ``live@*``).
"""

import pytest

from repro import GcConfig
from repro.analysis import Oracle
from repro.workloads import build_ring_cycle

from ..conftest import make_sim

SITES = [f"s{i}" for i in range(6)]

# Low thresholds so the *live* ring's distances exceed the back threshold and
# its members get back-traced -- the case the threshold bump has to settle.
TUNING = dict(
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)

#: Back traces the scenario starts in all, doomed ring included (seeds 0, 7).
MAX_TRACES = 6


def run_scenario(seed: int):
    sim = make_sim(seed=seed, sites=SITES, gc=GcConfig(**TUNING))
    live = build_ring_cycle(sim, SITES)
    doomed = build_ring_cycle(sim, SITES[:4])
    oracle = Oracle(sim)
    for _ in range(2):
        sim.run_gc_round()
        oracle.check_safety()
    doomed.make_garbage(sim)
    for _ in range(30):
        sim.run_gc_round()
        oracle.check_safety()
    assert not oracle.garbage_set()
    for member in live.cycle:
        assert sim.site(member.site).heap.contains(member)
    return sim


@pytest.mark.parametrize("seed", [0, 7])
def test_live_suspects_stop_generating_traces(seed):
    sim = run_scenario(seed)
    started = sim.metrics.count("backtrace.started")
    assert started <= MAX_TRACES
    for _ in range(60):
        sim.run_gc_round()
    assert sim.metrics.count("backtrace.started") == started
