"""Window planning: byte-identity and pinned planner behaviour.

Window boundaries decide how often the coordinator synchronizes, never what
executes -- so the planner (EOT advertisement + quiescence jumps) must leave
a sharded run byte-identical to the sequential engine, on the same seed, at
any worker count, with or without a fault-plan storm.  These tests run an
e13-shaped workload (churn burst, quiet tail, explicit GC rounds) and compare
full snapshots, trace outcomes, and merged metrics; they also pin the
planner's host-independent counts (the fixed-step planner of 1ef2097 needed
225 windows here at either worker count), so a planner that stops jumping
fails here rather than in a wall-clock number.  A pinned window count may
fall; it must never rise.
"""

import pytest

from ..conftest import TWIN_STORM, pick, run_churn_twin


def _run(workers, seed, fault_plan=None):
    # A quiet tail long enough for the collectors to reach their quiet
    # full-trace state (full_trace_every_n=6 at period ~100 means the
    # look-through only pays off ~600 time units after churn stops).
    return run_churn_twin(workers, seed, 2000.0, 8, fault_plan)


PINNED = {
    2: dict(windows=145, eot_jumps=9, quiescence_jumps=1, cross_shard_messages=392),
    4: dict(windows=145, eot_jumps=9, quiescence_jumps=1, cross_shard_messages=602),
}
PINNED_STORM = dict(windows=133, eot_jumps=3, quiescence_jumps=1,
                    cross_shard_messages=613)


@pytest.mark.parametrize("workers", [2, 4])
def test_demand_planner_matches_sequential_with_pinned_counts(workers):
    seq_snap, seq_outcomes, seq_metrics, _ = _run(1, seed=17)
    snap, outcomes, metrics, stats = _run(workers, seed=17)
    assert snap == seq_snap
    assert outcomes == seq_outcomes
    assert metrics == seq_metrics
    # The workload has a quiet tail: the planner must jump it, routing
    # exactly the messages it always routed.
    assert pick(stats, PINNED[workers]) == PINNED[workers]


def test_chaos_storm_with_a_quiet_tail_matches_sequential():
    seq_snap, seq_outcomes, _, _ = _run(1, seed=29, fault_plan=TWIN_STORM)
    snap, outcomes, _, stats = _run(4, seed=29, fault_plan=TWIN_STORM)
    assert snap == seq_snap
    assert outcomes == seq_outcomes
    assert pick(stats, PINNED_STORM) == PINNED_STORM


