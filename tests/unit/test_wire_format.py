"""Round-trip property tests for the packed cross-shard wire format.

The parallel engine's twin guarantee leans on ``unpack(pack(batch))``
reproducing the routed batch *exactly* -- same payload values, same uid and
dup flag, same delivery times.  Hypothesis generates every packed payload
kind (including the field-less and empty-collection shapes) plus adversarial
values that must demote cleanly to the pickled fallback.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

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
opt_times = st.none() | st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False
)

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
    cache_expires_at=opt_times,
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
    st.builds(
        BackOutcome,
        trace_id=trace_ids,
        verdict=verdicts,
        cache_expires_at=opt_times,
    ),
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
    import struct

    header = struct.Struct("<BBHHqdI")
    fields = list(header.unpack_from(blob, 4))
    fields[-1] += 4
    header.pack_into(blob, 4, *fields)
    with pytest.raises(SimulationError, match="length mismatch"):
        codec.unpack_blob(bytes(blob))


# -- window reply metadata ---------------------------------------------------


def test_reply_meta_roundtrip():
    from repro.net.wire import pack_reply_meta, unpack_reply_meta

    data = pack_reply_meta(12.5, 20.5, 42)
    assert isinstance(data, bytes) and len(data) == 24
    assert unpack_reply_meta(data) == (12.5, 20.5, 42)


def test_reply_meta_packs_infinities_exactly():
    from repro.net.wire import pack_reply_meta, unpack_reply_meta

    inf = float("inf")
    next_time, eot, fired = unpack_reply_meta(pack_reply_meta(inf, inf, 0))
    assert next_time == inf and eot == inf and fired == 0


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
    import struct

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
