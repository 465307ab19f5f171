"""Fault plans and cases survive JSON unchanged.

A case file is only a counterexample if re-reading it rebuilds the same run:
the same plan (equal rules, the same driver edges, link window and heal
time, the same fate for every send drawn from the same stream) and the same
configuration.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GcConfig, NetworkConfig, SimulationConfig
from repro.config import COLLECTORS
from repro.harness.cases import BUILDERS, Case
from repro.net.faults import FaultPlan

from ..conftest import examples

SITES = ("a", "b", "c", "d")
times = st.floats(0.0, 5000.0)
probabilities = st.floats(0.0, 1.0)
endpoints = st.none() | st.sampled_from(SITES)


def through_json(data: dict) -> dict:
    return json.loads(json.dumps(data))


@st.composite
def windows(draw):
    start = draw(times)
    end = draw(st.none() | st.floats(0.5, 3000.0).map(lambda length: start + length))
    return start, end


@st.composite
def single_plans(draw):
    kind = draw(st.sampled_from(("loss", "dup", "reorder", "crash", "partition")))
    start, end = draw(windows())
    if kind == "loss":
        return FaultPlan.loss(
            draw(probabilities), start=start, end=end, src=draw(endpoints), dst=draw(endpoints)
        )
    if kind == "dup":
        return FaultPlan.duplication(
            draw(probabilities),
            copies=draw(st.integers(1, 3)),
            lag=draw(st.floats(0.0, 50.0)),
            start=start,
            end=end,
        )
    if kind == "reorder":
        return FaultPlan.reorder_burst(
            draw(probabilities), delay=draw(st.floats(0.0, 50.0)), start=start, end=end
        )
    if kind == "crash":
        return FaultPlan.crash_window(draw(st.sampled_from(SITES)), at=start, recover_at=end)
    groups = draw(
        st.lists(st.frozensets(st.sampled_from(SITES), min_size=1), min_size=1, max_size=3)
    )
    return FaultPlan.partition_window(groups, at=start, heal_at=end)


@st.composite
def plans(draw):
    first, *rest = draw(st.lists(single_plans(), min_size=1, max_size=4))
    plan = first.merge(*rest) if rest else first
    if draw(st.booleans()):
        plan = plan.named(draw(st.text(max_size=12)))
    return plan


sends = st.lists(
    st.tuples(times, st.sampled_from(SITES), st.sampled_from(SITES)), max_size=30
)


@given(st.just(FaultPlan(name="clean")) | plans(), sends, st.integers(0, 2**32))
@settings(max_examples=examples(200), deadline=None)
def test_fault_plan_survives_json(plan, sends, seed):
    copy = FaultPlan.from_json(through_json(plan.to_json()))
    assert copy == plan
    assert copy.schedule_edges() == plan.schedule_edges()
    assert copy.link_window == plan.link_window
    assert copy.healed_at == plan.healed_at
    original, replayed = random.Random(seed), random.Random(seed)
    for now, src, dst in sends:
        assert copy.roll(now, src, dst, replayed) == plan.roll(now, src, dst, original)


@st.composite
def simulation_configs(draw):
    min_latency = draw(st.floats(0.0, 10.0))
    network = NetworkConfig(
        min_latency=min_latency,
        max_latency=min_latency + draw(st.floats(0.0, 20.0)),
        fifo_per_pair=draw(st.booleans()),
    )
    period = draw(st.floats(20.0, 500.0))
    gc = GcConfig(
        collector=draw(st.sampled_from(COLLECTORS)),
        suspicion_threshold=draw(st.integers(1, 10)),
        assumed_cycle_length=draw(st.integers(1, 10)),
        back_threshold_increment=draw(st.integers(1, 8)),
        local_trace_period=period,
        local_trace_period_jitter=draw(st.floats(0.0, 30.0)),
        local_trace_duration=draw(st.floats(0.0, period / 2)),
        backtrace_timeout=draw(st.floats(10.0, 1000.0)),
        backinfo_algorithm=draw(st.sampled_from(("bottomup", "independent"))),
        enable_transfer_barrier=draw(st.booleans()),
        enable_threshold_tuning=draw(st.booleans()),
        defer_messages=draw(st.booleans()),
        max_traces_per_trigger_check=draw(st.integers(1, 4)),
        full_trace_every_n=draw(st.integers(1, 16)),
        full_update_period=draw(st.integers(1, 8)),
    )
    return SimulationConfig(
        seed=draw(st.integers(0, 2**32)),
        network=network,
        gc=gc,
        parallel_workers=draw(st.integers(1, 4)),
    )


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)


@st.composite
def cases(draw):
    return Case(
        name=draw(st.text(max_size=20)),
        config=draw(simulation_configs()),
        sites=tuple(
            draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True))
        ),
        builder=draw(st.sampled_from(sorted(BUILDERS))),
        args=draw(st.dictionaries(st.text(max_size=8), scalars, max_size=4)),
        plan=draw(st.just(FaultPlan(name="clean")) | plans()),
        cut_at=tuple(draw(st.lists(times, max_size=4))),
        horizon=draw(times),
        drain_rounds=draw(st.integers(1, 100)),
        agrees=draw(st.booleans()),
    )


def test_config_json_names_only_changed_fields():
    # A case file then survives the removal of any field it leaves at its
    # default.
    assert SimulationConfig().to_json() == {}
    config = SimulationConfig(seed=3, gc=GcConfig(suspicion_threshold=2))
    assert config.to_json() == {"seed": 3, "gc": {"suspicion_threshold": 2}}
    assert SimulationConfig.from_json(config.to_json()) == config


@given(cases())
@settings(max_examples=examples(100), deadline=None)
def test_case_survives_json(case):
    copy = Case.from_json(through_json(case.to_json()))
    assert copy == case
    assert copy.config == case.config
    assert copy.plan.schedule_edges() == case.plan.schedule_edges()
