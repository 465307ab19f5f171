"""Caching/coalescing/batching must not change outcomes.

The verdict cache, trace coalescing, and call batching are pure performance
mechanisms.  They were twinned against a run without them while that could
still be selected; the digests of that comparison's default leg are held by
``test_golden_digests.py`` (section ``data_plane``).  Here the same seeded
workload must collect all garbage and keep every live object, with the
oracle auditing safety after every round, and must actually hit the cache.
"""

import pytest

from repro import GcConfig
from repro.analysis import Oracle
from repro.workloads import build_ring_cycle

from ..conftest import make_sim

SITES = [f"s{i}" for i in range(6)]

# Low thresholds so the *live* ring's distances exceed the back threshold and
# the live suspects get back-traced repeatedly -- the case the cache serves.
TUNING = dict(
    suspicion_threshold=2,
    assumed_cycle_length=2,
    back_threshold_increment=1,
)


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
def test_audited_run_answers_live_suspects_from_the_cache(seed):
    sim = run_scenario(seed)
    assert sim.metrics.count("backtrace.cache_hits") > 0
