"""Unit tests for identifiers and configuration validation."""

import dataclasses
import gc
import pickle
import types

import pytest

from repro import Simulation
from repro.config import GcConfig, NetworkConfig, SimulationConfig
from repro.core.backtrace.messages import BackCall
from repro.errors import ConfigError
from repro.ids import FrameId, ObjectId, TraceId, coerce_object_id, parse_object_id
from repro.net.message import Message
from repro.sim.parallel import _pack_buckets, _RecordStash
from repro.workloads import build_chain_across_sites, build_ring_cycle

ID_TYPES = [
    (ObjectId, ("site", "serial"), "P.3"),
    (TraceId, ("initiator", "seq"), "bt:P:3"),
    (FrameId, ("site", "seq"), "fr:P:3"),
]


def test_object_id_round_trip():
    oid = ObjectId("siteX", 17)
    assert parse_object_id(str(oid)) == oid


def test_object_id_is_local_to():
    assert ObjectId("P", 0).is_local_to("P")
    assert not ObjectId("P", 0).is_local_to("Q")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_object_id("nodot")


def test_coerce_accepts_both_forms():
    oid = ObjectId("P", 1)
    assert coerce_object_id(oid) is oid
    assert coerce_object_id("P.1") == oid


def test_ids_sort_deterministically():
    ids = [ObjectId("Q", 1), ObjectId("P", 2), ObjectId("P", 1)]
    assert sorted(ids) == [ObjectId("P", 1), ObjectId("P", 2), ObjectId("Q", 1)]


def test_trace_and_frame_ids_hashable_and_distinct():
    assert TraceId("P", 0) != TraceId("Q", 0)
    assert FrameId("P", 0) != FrameId("P", 1)
    assert len({TraceId("P", 0), TraceId("P", 0)}) == 1


# -- value semantics of the three (tuple-backed) id types ----------------------


@pytest.mark.parametrize("cls,fields,text", ID_TYPES)
def test_id_construction_fields_and_text(cls, fields, text):
    positional = cls("P", 3)
    by_keyword = cls(**dict(zip(fields, ("P", 3))))
    assert positional == by_keyword
    assert tuple(getattr(positional, name) for name in fields) == ("P", 3)
    # The texts logs, exports and digests are built from.
    assert str(positional) == text
    first, second = fields
    assert repr(positional) == f"{cls.__name__}({first}='P', {second}=3)"
    assert f"{positional}" == text


@pytest.mark.parametrize("cls,fields,text", ID_TYPES)
def test_id_hash_eq_and_order(cls, fields, text):
    assert cls("P", 3) == cls("P", 3) and hash(cls("P", 3)) == hash(cls("P", 3))
    assert cls("P", 3) != cls("P", 4) and cls("P", 3) != cls("Q", 3)
    assert len({cls("P", 3), cls("P", 3), cls("Q", 3)}) == 2
    shuffled = [cls("Q", 1), cls("P", 10), cls("P", 2), cls("Q", 0)]
    assert sorted(shuffled) == [cls("P", 2), cls("P", 10), cls("Q", 0), cls("Q", 1)]
    assert cls("P", 9) < cls("Q", 0) and cls("P", 2) < cls("P", 10)


@pytest.mark.parametrize("cls,fields,text", ID_TYPES)
def test_ids_are_immutable(cls, fields, text):
    value = cls("P", 3)
    for name in fields + ("anything_else",):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("cls,fields,text", ID_TYPES)
def test_ids_pickle_round_trip(cls, fields, text):
    value = cls("P", 3)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert clone == value and type(clone) is cls


def test_ids_wire_round_trip():
    call = BackCall(
        trace_id=TraceId("P", 7), target=ObjectId("Q", 8), reply_to=FrameId("R", 9), seq=1
    )
    batch = [(2.5, Message(src="P", dst="Q", payload=call, uid=1))]
    stash = _RecordStash()
    stash.stash_buckets([bucket for *_, bucket in _pack_buckets(batch, {"Q": 0})])
    [(_, message)] = stash.take_due(float("inf"))
    unpacked = message.payload
    assert unpacked == call
    assert type(unpacked.trace_id) is TraceId
    assert type(unpacked.target) is ObjectId
    assert type(unpacked.reply_to) is FrameId


def test_ids_of_different_types_compare_equal():
    # The price of tuple-backed ids, stated so nobody is surprised by it...
    assert TraceId("P", 0) == FrameId("P", 0) == ObjectId("P", 0) == ("P", 0)
    assert len({TraceId("P", 0), FrameId("P", 0)}) == 1


def _id_kind(key):
    if type(key) in (ObjectId, TraceId, FrameId):
        return type(key).__name__
    if type(key) is tuple and len(key) == 2 and isinstance(key[0], str) and isinstance(key[1], int):
        return "plain (str, int) tuple"
    return None


def _audit_id_containers(root) -> set:
    """Every dict/set reachable from ``root`` holds ids of one type only;
    returns the id kinds met."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, frontier, met = {id(root)}, [root], set()
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if id(referent) in seen or isinstance(referent, opaque):
                continue
            seen.add(id(referent))
            frontier.append(referent)
            if isinstance(referent, (dict, set, frozenset)):
                kinds = {_id_kind(key) for key in referent} - {None}
                assert len(kinds) <= 1, (kinds, referent)
                met |= kinds
    return met


def test_no_container_mixes_id_types():
    # ...and the invariant that makes it harmless: no set and no dict of a
    # simulation holds ids of two types (plain ``(site, n)`` tuples count as
    # a type of their own).  Audited with a back trace in flight, when the
    # engine's frame and trace tables are populated, and again at the end.
    sim = Simulation(SimulationConfig(seed=3))
    sites = ["P", "Q", "R"]
    sim.add_sites(sites, auto_gc=True)
    build_ring_cycle(sim, sites, objects_per_site=2).make_garbage(sim)
    build_ring_cycle(sim, sites)
    build_chain_across_sites(sim, sites + sites + sites)
    while not any(sim.site(s).collector_stats()["active_traces"] for s in sites):
        sim.run_for(1.0)
        assert sim.now < 1500.0, "no back trace started"
    met = _audit_id_containers(sim)
    sim.run_for(1500.0)
    met |= _audit_id_containers(sim)
    assert met >= {"ObjectId", "TraceId", "FrameId"}


def test_gc_config_defaults_valid():
    config = GcConfig()
    assert config.initial_back_threshold == (
        config.suspicion_threshold + config.assumed_cycle_length
    )


@pytest.mark.parametrize(
    "field,value",
    [
        ("suspicion_threshold", 0),
        ("assumed_cycle_length", 0),
        ("back_threshold_increment", 0),
        ("local_trace_period", 0.0),
        ("local_trace_period_jitter", -1.0),
        ("local_trace_duration", -1.0),
        ("backtrace_timeout", 0.0),
        ("backinfo_algorithm", "magic"),
    ],
)
def test_gc_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(GcConfig(), **{field: value})


def test_gc_config_duration_must_fit_in_period():
    with pytest.raises(ConfigError):
        GcConfig(local_trace_period=10.0, local_trace_duration=10.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_latency": -1.0},
        {"min_latency": 5.0, "max_latency": 1.0},
    ],
)
def test_network_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        NetworkConfig(**kwargs)


def test_simulation_config_rejects_non_int_seed():
    with pytest.raises(ConfigError):
        SimulationConfig(seed="zero")


def test_configs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        GcConfig().suspicion_threshold = 9


# -- the configuration surface ---------------------------------------------------

GC_FIELDS = (
    "collector",
    "suspicion_threshold",
    "assumed_cycle_length",
    "back_threshold_increment",
    "local_trace_period",
    "local_trace_period_jitter",
    "local_trace_duration",
    "backtrace_timeout",
    "backinfo_algorithm",
    "enable_transfer_barrier",
    "enable_threshold_tuning",
    "defer_messages",
    "defer_delay",
    "max_traces_per_trigger_check",
    "full_trace_every_n",
    "full_update_period",
)
NETWORK_FIELDS = (
    "min_latency",
    "max_latency",
    "fifo_per_pair",
    "pair_rng_streams",
)
SIMULATION_FIELDS = ("seed", "network", "gc", "parallel_workers")
#: Switches that once selected a pre-optimisation leg, overrides nothing ever
#: set, the knob of a mechanism since deleted, a second switch for what
#: ``collector="null"`` names, and a second loss path beside the fault plan's
#: (``FaultPlan.loss(p)``).  None may come back.
REMOVED_FIELDS = {
    GcConfig: (
        "incremental_traces",
        "reliable_updates",
        "delta_updates",
        "flat_kernel",
        "backtrace_cache",
        "backtrace_cache_ttl_ticks",
        "backtrace_coalesce",
        "backtrace_batch_calls",
        "backtrace_retry_backoff",
        "backtrace_retry_backoff_cap",
        "termination_trial_timeout",
        "termination_retry_backoff",
        "update_retransmit_timeout",
        "update_retransmit_limit",
        "enable_backtracing",
    ),
    NetworkConfig: ("drop_probability",),
    SimulationConfig: ("shard_policy",),
}


def test_config_surface_is_pinned():
    # A new field is a new configuration axis for every test, bench and
    # digest: it has to be argued for here before it reaches review.
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(GcConfig) == GC_FIELDS
    assert names(NetworkConfig) == NETWORK_FIELDS
    assert names(SimulationConfig) == SIMULATION_FIELDS
    for cls, removed in REMOVED_FIELDS.items():
        for name in removed:
            with pytest.raises(TypeError, match=name):
                cls(**{name: None})
