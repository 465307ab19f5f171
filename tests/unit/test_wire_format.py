"""Round-trip property tests for the packed cross-shard wire format.

The parallel engine's twin guarantee leans on ``unpack(pack(batch))``
reproducing the routed batch *exactly* -- same payload values, same uid and
dup flag, same delivery times.  Hypothesis generates every packed payload
kind (including the field-less and empty-collection shapes) plus adversarial
values that must demote cleanly to the pickled fallback.

The bytes themselves are pinned per kind by ``tests/golden/wire_records.json``
(``GOLDEN_CASES`` below); a change that moves the format on purpose re-records
it with ``PYTHONPATH=src python -m tests.unit.test_wire_format``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fractions import Fraction

from repro.core.backtrace.messages import (
    BackCall,
    BackCallBatch,
    BackOutcome,
    BackReply,
    BackReplyBatch,
    TraceOutcome,
)
from repro.core.termination import (
    TrialAbort,
    TrialAck,
    TrialCollect,
    TrialMark,
    TrialRescue,
    TrialRescueStart,
)
from repro.errors import SimulationError
from repro.gc.insert import InsertDone, InsertRequest, UnpinRequest
from repro.gc.update import (
    UpdateAck,
    UpdateDeltaPayload,
    UpdatePayload,
    UpdateRefreshRequest,
)
from repro.ids import FrameId, ObjectId, TraceId
from repro.mutator.ops import MutatorHop, RemoteCopy
from repro.net.message import Message, Payload
from repro.net.wire import WireCodec

import pytest

SITES = [f"w{i:02d}" for i in range(12)]

sites = st.sampled_from(SITES)
serials = st.integers(min_value=0, max_value=2**40)
seqs = st.integers(min_value=-1, max_value=2**40)
oids = st.builds(ObjectId, site=sites, serial=serials)
distances = st.integers(min_value=0, max_value=2**31 - 1)
dist_pairs = st.lists(st.tuples(oids, distances), max_size=8).map(tuple)
oid_tuples = st.lists(oids, max_size=8).map(tuple)
trace_ids = st.builds(TraceId, initiator=sites, seq=serials)
frame_ids = st.builds(FrameId, site=sites, seq=serials)
verdicts = st.sampled_from([TraceOutcome.LIVE, TraceOutcome.GARBAGE])
opt_sites = st.none() | sites

trial_keys = st.tuples(sites, serials)
#: Credits the compact `<qq` encoding must carry exactly (i64 num/den).
credits = st.builds(
    Fraction,
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2**31),
)
site_tuples = st.lists(sites, max_size=6).map(tuple)

back_calls = st.builds(
    BackCall, trace_id=trace_ids, target=oids, reply_to=frame_ids, seq=seqs
)
back_replies = st.builds(
    BackReply,
    trace_id=trace_ids,
    reply_to=frame_ids,
    verdict=verdicts,
    participants=st.frozensets(sites, max_size=6),
    timed_out=st.booleans(),
)

payloads = st.one_of(
    st.builds(
        UpdatePayload,
        distances=dist_pairs,
        seq=seqs,
    ),
    st.builds(
        UpdateDeltaPayload,
        adds=dist_pairs,
        distances=dist_pairs,
        removals=oid_tuples,
        seq=seqs,
    ),
    st.just(UpdateRefreshRequest()),
    st.builds(UpdateAck, seq=seqs),
    back_calls,
    back_replies,
    st.builds(BackOutcome, trace_id=trace_ids, verdict=verdicts),
    st.builds(BackCallBatch, calls=st.lists(back_calls, max_size=5).map(tuple)),
    st.builds(
        BackReplyBatch, replies=st.lists(back_replies, max_size=5).map(tuple)
    ),
    st.builds(
        InsertRequest,
        target=oids,
        pin_holder=opt_sites,
        release_owner_custody=st.booleans(),
        seq=seqs,
    ),
    st.builds(InsertDone, target=oids, seq=seqs),
    st.builds(UnpinRequest, target=oids, seq=seqs),
    st.builds(
        MutatorHop,
        mutator=st.text(max_size=12),
        target=oids,
        seq=seqs,
    ),
    st.builds(
        RemoteCopy,
        ref=oids,
        dest_holder=oids,
        pin_holder=opt_sites,
        seq=seqs,
    ),
    st.builds(
        TrialMark, trial=trial_keys, targets=oid_tuples, credit=credits, seq=seqs
    ),
    st.builds(
        TrialRescueStart,
        trial=trial_keys,
        member_sites=site_tuples,
        credit=credits,
        seq=seqs,
    ),
    st.builds(
        TrialRescue,
        trial=trial_keys,
        targets=oid_tuples,
        member_sites=site_tuples,
        credit=credits,
        seq=seqs,
    ),
    st.builds(
        TrialAck,
        trial=trial_keys,
        phase=st.sampled_from(["mark", "rescue"]),
        credit=credits,
        joined=st.booleans(),
        dirty=st.booleans(),
        seq=seqs,
    ),
    st.builds(TrialCollect, trial=trial_keys, seq=seqs),
    st.builds(TrialAbort, trial=trial_keys, seq=seqs),
)

routed = st.tuples(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.builds(
        Message,
        src=sites,
        dst=sites,
        payload=payloads,
        uid=st.integers(min_value=0, max_value=2**62),
        dup=st.booleans(),
    ),
)


@given(st.lists(routed, max_size=12))
@settings(max_examples=300, deadline=None)
def test_blob_roundtrip_is_identity(batch):
    codec = WireCodec(SITES)
    assert codec.unpack_blob(codec.pack_routed(batch)) == batch


@given(st.lists(routed, max_size=12))
@settings(max_examples=100, deadline=None)
def test_scan_headers_match_and_reframe_losslessly(batch):
    codec = WireCodec(SITES)
    blob = codec.pack_routed(batch)
    scanned = list(codec.scan_blob(blob))
    assert len(scanned) == len(batch)
    records = []
    for (deliver_at, dst, src, kind, uid, record), (t, message) in zip(
        scanned, batch
    ):
        assert deliver_at == t
        assert codec.sites[src] == message.src
        assert codec.sites[dst] == message.dst
        assert uid == message.uid
        # Every generated payload fits the compact encoding.
        assert kind != 0
        records.append(record)
    # Routing never decodes payloads: re-framing scanned records into a new
    # blob (what _take_pending does per window) must be lossless.
    assert codec.unpack_blob(codec.pack_blob(records)) == batch


@given(routed)
@settings(max_examples=100, deadline=None)
def test_single_record_roundtrip(pair):
    codec = WireCodec(SITES)
    deliver_at, message = pair
    blob = codec.pack_blob([codec.pack_record(deliver_at, message)])
    assert codec.unpack_blob(blob) == [pair]


# -- edge cases the generators cannot be trusted to always hit ---------------


def _roundtrip_one(payload, dup=False):
    codec = WireCodec(SITES)
    batch = [
        (12.5, Message(src="w00", dst="w03", payload=payload, uid=7, dup=dup))
    ]
    unpacked = codec.unpack_blob(codec.pack_routed(batch))
    assert unpacked == batch
    return codec, batch


def test_empty_delta_roundtrip():
    _roundtrip_one(UpdateDeltaPayload(adds=(), distances=(), removals=(), seq=3))


def test_refresh_request_roundtrip():
    _roundtrip_one(UpdateRefreshRequest())


def test_empty_update_and_batches_roundtrip():
    _roundtrip_one(UpdatePayload(distances=(), seq=0))
    _roundtrip_one(BackCallBatch(calls=()))
    _roundtrip_one(BackReplyBatch(replies=()))


def test_dup_flag_survives():
    codec, batch = _roundtrip_one(UpdateAck(seq=5), dup=True)
    [(_, message)] = codec.unpack_blob(codec.pack_routed(batch))
    assert message.dup is True


def test_out_of_range_distance_demotes_to_pickled_fallback():
    # A distance beyond i32 cannot use the compact encoding; the record
    # must fall back to pickling and still round-trip exactly.
    codec = WireCodec(SITES)
    payload = UpdatePayload(distances=((ObjectId("w01", 4), 2**40),), seq=1)
    batch = [(1.0, Message(src="w00", dst="w01", payload=payload, uid=1))]
    blob = codec.pack_routed(batch)
    [(_, _, _, kind, _, _)] = list(codec.scan_blob(blob))
    assert kind == 0
    assert codec.unpack_blob(blob) == batch


def test_oversized_credit_demotes_to_pickled_fallback():
    # Repeated splits can push a credit's denominator past i64; the compact
    # `<qq` encoding must refuse it and the record still round-trip.
    codec = WireCodec(SITES)
    payload = TrialMark(
        trial=("w01", 7),
        targets=(ObjectId("w02", 3),),
        credit=Fraction(1, 2**80),
        seq=4,
    )
    batch = [(2.0, Message(src="w01", dst="w02", payload=payload, uid=11))]
    blob = codec.pack_routed(batch)
    [(_, _, _, kind, _, _)] = list(codec.scan_blob(blob))
    assert kind == 0
    assert codec.unpack_blob(blob) == batch


def test_unknown_trial_phase_demotes_to_pickled_fallback():
    codec = WireCodec(SITES)
    payload = TrialAck(
        trial=("w00", 1), phase="weird", credit=Fraction(1, 2), seq=1
    )
    batch = [(2.0, Message(src="w03", dst="w00", payload=payload, uid=12))]
    blob = codec.pack_routed(batch)
    [(_, _, _, kind, _, _)] = list(codec.scan_blob(blob))
    assert kind == 0
    assert codec.unpack_blob(blob) == batch


@dataclass(frozen=True)
class Oddball(Payload):
    """A payload class the codec has no packer for (module-level: picklable)."""

    note: str = "anything pickles"


def test_unregistered_payload_class_uses_pickled_fallback():
    codec = WireCodec(SITES)
    batch = [
        (3.0, Message(src="w02", dst="w05", payload=Oddball(), uid=9))
    ]
    blob = codec.pack_routed(batch)
    [(_, _, _, kind, _, _)] = list(codec.scan_blob(blob))
    assert kind == 0
    assert codec.unpack_blob(blob) == batch


def test_site_index_order_is_lexicographic():
    # The coordinator sorts packed records by (deliver_at, src index, uid)
    # in place of the sequential engine's (deliver_at, src, uid): valid only
    # because interned index order equals lexicographic SiteId order.
    shuffled = ["w05", "w01", "w09", "w02"]
    codec = WireCodec(shuffled)
    assert list(codec.sites) == sorted(shuffled)
    assert [codec.site_index(s) for s in sorted(shuffled)] == [0, 1, 2, 3]


def test_codec_rejects_oversized_site_tables():
    with pytest.raises(SimulationError):
        WireCodec([f"x{i}" for i in range(0xFFFF)])


def test_record_length_mismatch_is_detected():
    codec = WireCodec(SITES)
    payload = UpdateAck(seq=2)
    blob = bytearray(
        codec.pack_routed(
            [(1.0, Message(src="w00", dst="w01", payload=payload, uid=1))]
        )
    )
    blob.extend(b"\x00" * 4)  # trailing garbage inside the framed record
    # Corrupt the framed length so decode and frame disagree.
    header = struct.Struct("<BBHHqdI")
    fields = list(header.unpack_from(blob, 4))
    fields[-1] += 4
    header.pack_into(blob, 4, *fields)
    with pytest.raises(SimulationError, match="length mismatch"):
        codec.unpack_blob(bytes(blob))


# -- recorded bytes, one entry per kind and per edge shape ----------------------

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "wire_records.json"
HEADER = struct.Struct("<BBHHqdI")
#: Header bytes ahead of ``payload_len``: all a kind-0 record pins, since the
#: pickled body (and so its length) may vary with the Python minor version.
ROUTING_PREFIX = HEADER.size - 4

_TRACE = TraceId(initiator="w02", seq=5)
_CALL = BackCall(
    trace_id=_TRACE, target=ObjectId("w03", 11), reply_to=FrameId("w02", 8), seq=21
)
_REPLY = BackReply(
    trace_id=_TRACE,
    reply_to=FrameId("w02", 8),
    verdict=TraceOutcome.GARBAGE,
    participants=frozenset({"w09", "w03", "w11"}),
    timed_out=False,
)
_REPLY_LIVE = BackReply(
    trace_id=TraceId(initiator="w11", seq=2**33),
    reply_to=FrameId("w00", 0),
    verdict=TraceOutcome.LIVE,
    participants=frozenset(),
    timed_out=True,
)
_PAIRS = ((ObjectId("w01", 4), 3), (ObjectId("w10", 2**35), 2**31 - 1))


def _case(payload, src="w00", dst="w03", uid=7, dup=False, deliver_at=12.5):
    return deliver_at, Message(src=src, dst=dst, payload=payload, uid=uid, dup=dup)


#: name -> (deliver_at, message).  Fixed literals: the recorded hex is the
#: format's reference, so an entry changes only when a kind's row does.
GOLDEN_CASES = {
    "update": _case(UpdatePayload(distances=_PAIRS, seq=17)),
    "update_empty": _case(UpdatePayload(())),
    "delta": _case(
        UpdateDeltaPayload(
            adds=_PAIRS[:1],
            distances=_PAIRS[1:],
            removals=(ObjectId("w05", 6), ObjectId("w00", 0)),
            seq=18,
        ),
        src="w11",
        dst="w00",
        uid=2**40,
        deliver_at=1e9 + 0.125,
    ),
    "delta_empty": _case(UpdateDeltaPayload()),
    "refresh_request": _case(UpdateRefreshRequest()),
    "ack": _case(UpdateAck(seq=5)),
    "ack_dup": _case(UpdateAck(seq=5), dup=True),
    "back_call": _case(_CALL),
    "back_reply": _case(_REPLY),
    "back_reply_live_timed_out": _case(_REPLY_LIVE),
    "back_outcome": _case(BackOutcome(trace_id=_TRACE, verdict=TraceOutcome.GARBAGE)),
    "back_outcome_live": _case(BackOutcome(trace_id=_TRACE, verdict=TraceOutcome.LIVE)),
    "call_batch": _case(
        BackCallBatch(
            calls=(
                _CALL,
                BackCall(
                    trace_id=_TRACE,
                    target=ObjectId("w03", 12),
                    reply_to=FrameId("w02", 9),
                ),
            )
        )
    ),
    "call_batch_empty": _case(BackCallBatch(calls=())),
    "reply_batch": _case(BackReplyBatch(replies=(_REPLY, _REPLY_LIVE))),
    "reply_batch_empty": _case(BackReplyBatch(replies=())),
    "insert_request": _case(InsertRequest(target=ObjectId("w03", 40), seq=3)),
    "insert_request_pinned": _case(
        InsertRequest(
            target=ObjectId("w03", 40),
            pin_holder="w07",
            release_owner_custody=True,
            seq=4,
        )
    ),
    "insert_done": _case(InsertDone(target=ObjectId("w03", 40), seq=6)),
    "unpin": _case(UnpinRequest(target=ObjectId("w03", 40))),
    "hop": _case(MutatorHop(mutator="m\u00fc-1", target=ObjectId("w03", 2), seq=9)),
    "hop_unnamed": _case(MutatorHop(mutator="", target=ObjectId("w03", 2))),
    "copy": _case(
        RemoteCopy(ref=ObjectId("w04", 1), dest_holder=ObjectId("w03", 2), seq=10)
    ),
    "copy_pinned": _case(
        RemoteCopy(
            ref=ObjectId("w04", 1),
            dest_holder=ObjectId("w03", 2),
            pin_holder="w00",
            seq=11,
        )
    ),
    "trial_mark": _case(
        TrialMark(
            trial=("w01", 7),
            targets=(ObjectId("w03", 3), ObjectId("w03", 5)),
            credit=Fraction(3, 8),
            seq=12,
        )
    ),
    "trial_mark_no_targets": _case(TrialMark(trial=("w01", 7), targets=())),
    "trial_rescue_start": _case(
        TrialRescueStart(
            trial=("w01", 7),
            member_sites=("w06", "w01", "w06"),
            credit=Fraction(1, 3),
            seq=13,
        )
    ),
    "trial_rescue": _case(
        TrialRescue(
            trial=("w01", 7),
            targets=(ObjectId("w03", 3),),
            member_sites=("w01", "w03"),
            credit=Fraction(1, 2**40),
            seq=14,
        )
    ),
    "trial_rescue_empty": _case(
        TrialRescue(trial=("w01", 7), targets=(), member_sites=())
    ),
    "trial_ack_mark": _case(
        TrialAck(
            trial=("w01", 7), phase="mark", credit=Fraction(1, 4), joined=True, seq=15
        )
    ),
    "trial_ack_rescue_dirty": _case(
        TrialAck(
            trial=("w01", 7), phase="rescue", credit=Fraction(0), dirty=True, seq=16
        )
    ),
    "trial_collect": _case(TrialCollect(trial=("w01", 7), seq=19)),
    "trial_abort": _case(TrialAbort(trial=("w01", 7), seq=20)),
    # Kind 0: a class without a row, then one record per compact-range guard.
    "pickled_unregistered_class": _case(Oddball(), src="w02", dst="w05", uid=9),
    "pickled_i32_distance": _case(
        UpdatePayload(distances=((ObjectId("w01", 4), 2**40),), seq=1)
    ),
    "pickled_credit_beyond_i64": _case(
        TrialMark(
            trial=("w01", 7),
            targets=(ObjectId("w02", 3),),
            credit=Fraction(1, 2**80),
            seq=4,
        )
    ),
    "pickled_unknown_phase": _case(
        TrialAck(trial=("w00", 1), phase="weird", credit=Fraction(1, 2), seq=1)
    ),
}


def record() -> dict:
    """Pack every golden case: full hex, or the routing prefix for kind 0."""
    codec = WireCodec(SITES)
    records = {}
    for name, (deliver_at, message) in GOLDEN_CASES.items():
        packed = codec.pack_record(deliver_at, message)
        if name.startswith("pickled_"):
            packed = packed[:ROUTING_PREFIX]
        records[name] = packed.hex()
    return records


@pytest.fixture(scope="module")
def golden_records() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["records"]


def test_golden_file_covers_every_case_and_every_kind(golden_records):
    assert set(golden_records) == set(GOLDEN_CASES)
    kinds = {bytes.fromhex(packed)[0] for packed in golden_records.values()}
    assert kinds == set(range(21))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_record_bytes_match_the_recorded_ones(golden_records, name):
    codec = WireCodec(SITES)
    deliver_at, message = GOLDEN_CASES[name]
    record = codec.pack_record(deliver_at, message)
    golden = bytes.fromhex(golden_records[name])
    if name.startswith("pickled_"):
        assert golden[0] == 0
        assert record[:ROUTING_PREFIX] == golden
        assert HEADER.unpack_from(record)[-1] == len(record) - HEADER.size
    else:
        assert record == golden
    assert codec.unpack_record(record) == (deliver_at, message)


# -- the table itself ----------------------------------------------------------


def test_every_protocol_payload_has_a_kind():
    # A protocol message without a row would ride the pickled fallback
    # unnoticed: nothing but one pinned scenario counts pickled records.
    from repro import GcConfig, Simulation, SimulationConfig
    from repro.net.wire import _KINDS

    handled = set()
    for collector in ("backtrace", "termination"):
        sim = Simulation.create(SimulationConfig(gc=GcConfig(collector=collector)))
        sim.add_sites(["P"])
        handled |= set(sim.site("P")._handlers)
    assert handled == {cls for _kind, cls, _fields in _KINDS}
    assert [kind for kind, _cls, _fields in _KINDS] == list(range(1, 21))


def test_table_check_rejects_a_row_that_misses_a_field():
    from repro.net.wire import _KINDS, _check_table

    kind, cls, fields = next(row for row in _KINDS if row[1] is InsertRequest)
    for bad in (
        fields[:-1],  # a field of the dataclass without an entry
        fields + (("seq", "i64"),),  # a field named twice
        fields + (("extra", "i64"),),  # an entry the dataclass does not have
    ):
        with pytest.raises(TypeError, match="InsertRequest declares"):
            _check_table(((kind, cls, bad),))
    _check_table(_KINDS)


# -- malformed frames ----------------------------------------------------------
#
# Blobs arrive from another process.  Layout of the two-record blob below:
# count 0..4 | ack header 4..30, body 30..38 | insert header 38..64, body 64..85
# (the body opens with the target's u16 site index).


def _cut(end):
    return lambda blob: blob[:end]


def _poke(fmt, offset, value):
    def corrupt(blob):
        struct.pack_into(fmt, blob, offset, value)
        return blob

    return corrupt


MALFORMED = {
    "cut_inside_a_header": (_cut(48), struct.error),
    "cut_inside_a_payload": (_cut(80), None),
    "unknown_kind": (_poke("<B", 4, 99), KeyError),
    "site_index_outside_the_table": (_poke("<H", 64, 500), SimulationError),
    "count_larger_than_the_blob": (_poke("<I", 0, 3), struct.error),
    "trailing_bytes": (lambda blob: blob + b"\x00\x00", None),
    "unpicklable_pickled_body": (_poke("<B", 4, 0), Exception),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_frame_raises_simulation_error(name):
    codec = WireCodec(SITES)
    blob = bytearray(
        codec.pack_routed(
            [
                _case(UpdateAck(seq=5)),
                _case(InsertRequest(target=ObjectId("w03", 40), seq=3)),
            ]
        )
    )
    assert len(blob) == 85
    corrupt, cause = MALFORMED[name]
    with pytest.raises(SimulationError) as caught:
        codec.unpack_blob(bytes(corrupt(blob)))
    # Chained from whatever went wrong underneath, when something did.
    if cause is None:
        assert caught.value.__cause__ is None
    else:
        assert isinstance(caught.value.__cause__, cause)


# -- bare records -------------------------------------------------------------


def test_bare_record_scan_and_unpack_roundtrip():
    # The worker stash holds bare records cut out of a blob: the scanned
    # header fields must be the message's, the view the record itself, and
    # unpack_record must reproduce the routed message exactly.
    codec = WireCodec(SITES)
    message = Message(
        src="w03", dst="w07", payload=UpdateAck(seq=9), uid=41, dup=True
    )
    record = codec.pack_record(6.25, message)
    [(deliver_at, dst, src, _kind, uid, view)] = list(
        codec.scan_blob(codec.pack_blob([record]))
    )
    assert (deliver_at, uid) == (6.25, 41)
    assert codec.sites[src] == "w03" and codec.sites[dst] == "w07"
    assert bytes(view) == record
    assert codec.unpack_record(record) == (6.25, message)


def test_unpack_record_rejects_length_mismatch():
    codec = WireCodec(SITES)
    record = bytearray(
        codec.pack_record(
            1.0, Message(src="w00", dst="w01", payload=UpdateAck(seq=2), uid=1)
        )
    )
    record.extend(b"\x00" * 4)
    header = struct.Struct("<BBHHqdI")
    fields = list(header.unpack_from(record, 0))
    fields[-1] += 4
    header.pack_into(record, 0, *fields)
    with pytest.raises(SimulationError, match="length mismatch"):
        codec.unpack_record(bytes(record))


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    GOLDEN_PATH.write_text(
        json.dumps({"recorded_at": commit, "records": record()}, indent=1) + "\n"
    )
