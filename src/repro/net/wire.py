"""Packed wire format for cross-shard coordination traffic.

The parallel engine's coordinator and its shard workers exchange batches of
in-flight messages at every safe-time window.  Pickling each
``(deliver_at, Message)`` pair costs class-descriptor traffic and per-field
overhead for what is, on the hot paths, a handful of small integers: the
Allen & Terriberry system description (PAPERS.md) builds its whole data
plane around compact batched reference-tracking records, and this module
applies the same discipline to the process boundary.

A *record* is one routed message, encoded as a fixed header plus a
kind-specific payload section:

``+------+-------+-----+-----+-----+------------+-------------+---------+``
``| kind | flags | src | dst | uid | deliver_at | payload_len | payload |``
``|  u8  |  u8   | u16 | u16 | i64 |    f64     |     u32     |   ...   |``

Site ids are interned against the simulation's sorted site list (both ends
derive the same table from the pre-fork site set), object ids become
``(site u16, serial i64)`` pairs, and list-valued fields ship as bulk
``struct`` arrays.  Every field round-trips exactly -- floats via IEEE
doubles, enums via stable codes -- so a packed batch is observationally
identical to the pickled one (the property tests assert
``unpack(pack(x)) == x`` for every packed kind).

Hot payload kinds (updates, deltas, acks, back calls/replies/outcomes and
their batches, inserts, mutator hops/copies) have dedicated packers; any
other payload -- or a packable kind with a field outside the compact ranges
-- falls back to an individually pickled record (``kind == 0``), so the
format is total over arbitrary payloads while staying compact where it
matters.  A *blob* is the concatenation of records for one (window,
destination-shard) pair prefixed with a record count; the coordinator
routes records by scanning headers alone, without decoding payload bytes.
"""

from __future__ import annotations

import pickle
import struct
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..ids import FrameId, ObjectId, SiteId, TraceId
from ..core.backtrace.messages import (
    BackCall,
    BackCallBatch,
    BackOutcome,
    BackReply,
    BackReplyBatch,
    TraceOutcome,
)
from ..core.termination import (
    TrialAbort,
    TrialAck,
    TrialCollect,
    TrialMark,
    TrialRescue,
    TrialRescueStart,
)
from ..gc.insert import InsertDone, InsertRequest, UnpinRequest
from ..gc.update import (
    UpdateAck,
    UpdateDeltaPayload,
    UpdatePayload,
    UpdateRefreshRequest,
)
from ..mutator.ops import MutatorHop, RemoteCopy
from .message import Message, Payload

#: (deliver_at, message) pairs as prepared sender-side by Network.send.
RoutedMessage = Tuple[float, Message]

_HEADER = struct.Struct("<BBHHqdI")
_BLOB_PREFIX = struct.Struct("<I")
#: Fixed trailer of every worker window reply: (next_event_time,
#: earliest_output_time, events_fired).  IEEE doubles carry +inf exactly,
#: which is the idle/unknown value for both time fields.
_REPLY_META = struct.Struct("<ddq")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

_FLAG_DUP = 0x01

_KIND_PICKLED = 0

#: Sentinel for ``Optional[SiteId] = None`` in packed site-index slots.
_NO_SITE = 0xFFFF

_VERDICTS = (TraceOutcome.LIVE, TraceOutcome.GARBAGE)
_VERDICT_CODE = {verdict: code for code, verdict in enumerate(_VERDICTS)}

_TRIAL_PHASES = ("mark", "rescue")
_TRIAL_PHASE_CODE = {phase: code for code, phase in enumerate(_TRIAL_PHASES)}

#: Compact range guards.  A value outside these bounds demotes the whole
#: record to the pickled fallback -- correctness never depends on fitting.
_I32_MIN, _I32_MAX = -(2**31), 2**31 - 1
_MAX_COUNT = 0xFFFFFFFF


def pack_reply_meta(next_time: float, eot: float, fired: int) -> bytes:
    """Encode the per-reply shard telemetry the coordinator plans windows on.

    ``next_time`` is the shard's earliest pending event (its frontier);
    ``eot`` its advertised earliest-output-time -- the earliest instant at
    which anything it still holds could *deliver* outside the shard; and
    ``fired`` the events executed by the command being answered.  One packed
    struct instead of loose tuple fields so the reply layout is explicit,
    versioned in one place, and byte-countable like the record blobs.
    """
    return _REPLY_META.pack(next_time, eot, fired)


def unpack_reply_meta(data) -> Tuple[float, float, int]:
    """Inverse of :func:`pack_reply_meta`: ``(next_time, eot, fired)``."""
    return _REPLY_META.unpack(data)


class _Unpackable(Exception):
    """Internal: this payload does not fit the compact encoding."""


def _check_i32(value: int) -> int:
    if not (_I32_MIN <= value <= _I32_MAX):
        raise _Unpackable(f"int out of i32 range: {value}")
    return value


class WireCodec:
    """Pack/unpack batches of routed messages against a fixed site table.

    Both ends construct the codec from the same sorted site list (the
    pre-fork site set -- sites cannot be added after the workers fork), so
    the u16 site indices agree without any negotiation.  Index order equals
    lexicographic :class:`SiteId` order, which is what lets the coordinator
    sort packed records by ``(deliver_at, src index, uid)`` and reproduce
    the sequential engine's ``(deliver_at, src, uid)`` tie-break exactly.
    """

    def __init__(self, site_ids: Sequence[SiteId]):
        self._sites: List[SiteId] = sorted(site_ids)
        if len(self._sites) >= _NO_SITE:
            raise SimulationError(
                f"packed wire format supports at most {_NO_SITE - 1} sites "
                f"(got {len(self._sites)})"
            )
        self._index: Dict[SiteId, int] = {
            site: index for index, site in enumerate(self._sites)
        }
        self._packers = {
            UpdatePayload: (1, self._pack_update),
            UpdateDeltaPayload: (2, self._pack_delta),
            UpdateRefreshRequest: (3, self._pack_empty),
            UpdateAck: (4, self._pack_ack),
            BackCall: (5, self._pack_back_call),
            BackReply: (6, self._pack_back_reply),
            BackOutcome: (7, self._pack_back_outcome),
            BackCallBatch: (8, self._pack_call_batch),
            BackReplyBatch: (9, self._pack_reply_batch),
            InsertRequest: (10, self._pack_insert_request),
            InsertDone: (11, self._pack_insert_done),
            UnpinRequest: (12, self._pack_unpin),
            MutatorHop: (13, self._pack_hop),
            RemoteCopy: (14, self._pack_copy),
            TrialMark: (15, self._pack_trial_mark),
            TrialRescueStart: (16, self._pack_trial_rescue_start),
            TrialRescue: (17, self._pack_trial_rescue),
            TrialAck: (18, self._pack_trial_ack),
            TrialCollect: (19, self._pack_trial_collect),
            TrialAbort: (20, self._pack_trial_abort),
        }
        self._unpackers = {
            1: self._unpack_update,
            2: self._unpack_delta,
            3: self._unpack_empty,
            4: self._unpack_ack,
            5: self._unpack_back_call,
            6: self._unpack_back_reply,
            7: self._unpack_back_outcome,
            8: self._unpack_call_batch,
            9: self._unpack_reply_batch,
            10: self._unpack_insert_request,
            11: self._unpack_insert_done,
            12: self._unpack_unpin,
            13: self._unpack_hop,
            14: self._unpack_copy,
            15: self._unpack_trial_mark,
            16: self._unpack_trial_rescue_start,
            17: self._unpack_trial_rescue,
            18: self._unpack_trial_ack,
            19: self._unpack_trial_collect,
            20: self._unpack_trial_abort,
        }

    @property
    def sites(self) -> List[SiteId]:
        return list(self._sites)

    def site_index(self, site_id: SiteId) -> int:
        return self._index[site_id]

    # -- field primitives ----------------------------------------------------

    def _site(self, site_id: SiteId) -> int:
        index = self._index.get(site_id)
        if index is None:
            raise _Unpackable(f"unknown site {site_id!r}")
        return index

    def _opt_site(self, site_id: Optional[SiteId]) -> int:
        return _NO_SITE if site_id is None else self._site(site_id)

    def _oid(self, out: List[bytes], oid: ObjectId) -> None:
        out.append(_U16.pack(self._site(oid.site)))
        out.append(_I64.pack(oid.serial))

    def _oid_list(self, out: List[bytes], oids: Sequence[ObjectId]) -> None:
        count = len(oids)
        if count > _MAX_COUNT:
            raise _Unpackable("oid list too long")
        out.append(_U32.pack(count))
        if count:
            out.append(
                struct.pack(f"<{count}H", *(self._site(o.site) for o in oids))
            )
            out.append(struct.pack(f"<{count}q", *(o.serial for o in oids)))

    # -- payload packers -----------------------------------------------------

    def _pack_empty(self, out: List[bytes], payload: Payload) -> None:
        return None

    def _pack_ack(self, out: List[bytes], payload: UpdateAck) -> None:
        out.append(_I64.pack(payload.seq))

    def _pack_update(self, out: List[bytes], payload: UpdatePayload) -> None:
        out.append(_I64.pack(payload.seq))
        self._pack_pairs(out, payload.distances)

    def _pack_delta(self, out: List[bytes], payload: UpdateDeltaPayload) -> None:
        out.append(_I64.pack(payload.seq))
        self._pack_pairs(out, payload.adds)
        self._pack_pairs(out, payload.distances)
        self._oid_list(out, payload.removals)

    def _pack_pairs(
        self, out: List[bytes], pairs: Sequence[Tuple[ObjectId, int]]
    ) -> None:
        count = len(pairs)
        if count > _MAX_COUNT:
            raise _Unpackable("pair list too long")
        out.append(_U32.pack(count))
        if count:
            out.append(
                struct.pack(f"<{count}H", *(self._site(o.site) for o, _ in pairs))
            )
            out.append(struct.pack(f"<{count}q", *(o.serial for o, _ in pairs)))
            out.append(
                struct.pack(
                    f"<{count}i", *(_check_i32(value) for _, value in pairs)
                )
            )

    def _pack_back_call(self, out: List[bytes], call: BackCall) -> None:
        out.append(
            struct.pack(
                "<HqHqHqq",
                self._site(call.trace_id.initiator),
                call.trace_id.seq,
                self._site(call.target.site),
                call.target.serial,
                self._site(call.reply_to.site),
                call.reply_to.seq,
                call.seq,
            )
        )

    def _pack_back_reply(self, out: List[bytes], reply: BackReply) -> None:
        out.append(
            struct.pack(
                "<HqHqBB",
                self._site(reply.trace_id.initiator),
                reply.trace_id.seq,
                self._site(reply.reply_to.site),
                reply.reply_to.seq,
                _VERDICT_CODE[reply.verdict],
                1 if reply.timed_out else 0,
            )
        )
        self._opt_float(out, reply.cache_expires_at)
        participants = sorted(self._site(p) for p in reply.participants)
        count = len(participants)
        if count > 0xFFFF:
            raise _Unpackable("participant set too large")
        out.append(_U16.pack(count))
        if count:
            out.append(struct.pack(f"<{count}H", *participants))

    def _pack_back_outcome(self, out: List[bytes], outcome: BackOutcome) -> None:
        out.append(
            struct.pack(
                "<HqB",
                self._site(outcome.trace_id.initiator),
                outcome.trace_id.seq,
                _VERDICT_CODE[outcome.verdict],
            )
        )
        self._opt_float(out, outcome.cache_expires_at)

    def _pack_call_batch(self, out: List[bytes], batch: BackCallBatch) -> None:
        if len(batch.calls) > 0xFFFF:
            raise _Unpackable("call batch too large")
        out.append(_U16.pack(len(batch.calls)))
        for call in batch.calls:
            self._pack_back_call(out, call)

    def _pack_reply_batch(self, out: List[bytes], batch: BackReplyBatch) -> None:
        if len(batch.replies) > 0xFFFF:
            raise _Unpackable("reply batch too large")
        out.append(_U16.pack(len(batch.replies)))
        for reply in batch.replies:
            self._pack_back_reply(out, reply)

    def _pack_insert_request(self, out: List[bytes], req: InsertRequest) -> None:
        out.append(
            struct.pack(
                "<HqHBq",
                self._site(req.target.site),
                req.target.serial,
                self._opt_site(req.pin_holder),
                1 if req.release_owner_custody else 0,
                req.seq,
            )
        )

    def _pack_insert_done(self, out: List[bytes], done: InsertDone) -> None:
        out.append(
            struct.pack(
                "<Hqq", self._site(done.target.site), done.target.serial, done.seq
            )
        )

    def _pack_unpin(self, out: List[bytes], unpin: UnpinRequest) -> None:
        out.append(
            struct.pack(
                "<Hqq",
                self._site(unpin.target.site),
                unpin.target.serial,
                unpin.seq,
            )
        )

    def _pack_hop(self, out: List[bytes], hop: MutatorHop) -> None:
        name = hop.mutator.encode("utf-8")
        if len(name) > 0xFFFF:
            raise _Unpackable("mutator name too long")
        out.append(_U16.pack(len(name)))
        out.append(name)
        out.append(
            struct.pack(
                "<Hqq", self._site(hop.target.site), hop.target.serial, hop.seq
            )
        )

    def _pack_copy(self, out: List[bytes], copy: RemoteCopy) -> None:
        out.append(
            struct.pack(
                "<HqHqHq",
                self._site(copy.ref.site),
                copy.ref.serial,
                self._site(copy.dest_holder.site),
                copy.dest_holder.serial,
                self._opt_site(copy.pin_holder),
                copy.seq,
            )
        )

    def _opt_float(self, out: List[bytes], value: Optional[float]) -> None:
        if value is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01")
            out.append(_F64.pack(value))

    # -- termination-trial packers -------------------------------------------
    #
    # Credit shares are exact Fractions; their numerator/denominator pack as
    # i64 pairs.  A long-running trial over many fan-out splits can overflow
    # that (credit denominators multiply), in which case struct.error demotes
    # the record to the pickled fallback -- exactness is never at risk.

    def _trial_head(self, out: List[bytes], trial: Tuple[SiteId, int]) -> None:
        out.append(struct.pack("<Hq", self._site(trial[0]), trial[1]))

    def _credit(self, out: List[bytes], credit: Fraction) -> None:
        out.append(
            struct.pack("<qq", credit.numerator, credit.denominator)
        )

    def _site_list(self, out: List[bytes], sites: Sequence[SiteId]) -> None:
        if len(sites) > 0xFFFF:
            raise _Unpackable("site list too long")
        out.append(_U16.pack(len(sites)))
        if sites:
            out.append(
                struct.pack(
                    f"<{len(sites)}H", *(self._site(s) for s in sites)
                )
            )

    def _pack_trial_mark(self, out: List[bytes], mark: TrialMark) -> None:
        self._trial_head(out, mark.trial)
        self._oid_list(out, mark.targets)
        self._credit(out, mark.credit)
        out.append(_I64.pack(mark.seq))

    def _pack_trial_rescue_start(
        self, out: List[bytes], start: TrialRescueStart
    ) -> None:
        self._trial_head(out, start.trial)
        self._site_list(out, start.member_sites)
        self._credit(out, start.credit)
        out.append(_I64.pack(start.seq))

    def _pack_trial_rescue(self, out: List[bytes], rescue: TrialRescue) -> None:
        self._trial_head(out, rescue.trial)
        self._oid_list(out, rescue.targets)
        self._site_list(out, rescue.member_sites)
        self._credit(out, rescue.credit)
        out.append(_I64.pack(rescue.seq))

    def _pack_trial_ack(self, out: List[bytes], ack: TrialAck) -> None:
        phase = _TRIAL_PHASE_CODE.get(ack.phase)
        if phase is None:
            raise _Unpackable(f"unknown trial phase {ack.phase!r}")
        self._trial_head(out, ack.trial)
        out.append(
            struct.pack(
                "<BBB", phase, 1 if ack.joined else 0, 1 if ack.dirty else 0
            )
        )
        self._credit(out, ack.credit)
        out.append(_I64.pack(ack.seq))

    def _pack_trial_collect(self, out: List[bytes], collect: TrialCollect) -> None:
        self._trial_head(out, collect.trial)
        out.append(_I64.pack(collect.seq))

    def _pack_trial_abort(self, out: List[bytes], abort: TrialAbort) -> None:
        self._trial_head(out, abort.trial)
        out.append(_I64.pack(abort.seq))

    # -- payload unpackers ---------------------------------------------------
    #
    # Each unpacker takes (buf, offset) and returns (payload, new_offset);
    # records are self-delimiting, so nested payloads need no length prefixes.

    def _read_oid(self, buf, off: int) -> Tuple[ObjectId, int]:
        site, serial = struct.unpack_from("<Hq", buf, off)
        return ObjectId(site=self._sites[site], serial=serial), off + 10

    def _read_oid_list(self, buf, off: int) -> Tuple[Tuple[ObjectId, ...], int]:
        (count,) = _U32.unpack_from(buf, off)
        off += 4
        if not count:
            return (), off
        sites = struct.unpack_from(f"<{count}H", buf, off)
        off += 2 * count
        serials = struct.unpack_from(f"<{count}q", buf, off)
        off += 8 * count
        table = self._sites
        return (
            tuple(
                ObjectId(site=table[s], serial=n) for s, n in zip(sites, serials)
            ),
            off,
        )

    def _read_pairs(
        self, buf, off: int
    ) -> Tuple[Tuple[Tuple[ObjectId, int], ...], int]:
        (count,) = _U32.unpack_from(buf, off)
        off += 4
        if not count:
            return (), off
        sites = struct.unpack_from(f"<{count}H", buf, off)
        off += 2 * count
        serials = struct.unpack_from(f"<{count}q", buf, off)
        off += 8 * count
        values = struct.unpack_from(f"<{count}i", buf, off)
        off += 4 * count
        table = self._sites
        return (
            tuple(
                (ObjectId(site=table[s], serial=n), v)
                for s, n, v in zip(sites, serials, values)
            ),
            off,
        )

    def _read_opt_float(self, buf, off: int) -> Tuple[Optional[float], int]:
        present = buf[off]
        off += 1
        if not present:
            return None, off
        (value,) = _F64.unpack_from(buf, off)
        return value, off + 8

    def _unpack_empty(self, buf, off: int):
        return UpdateRefreshRequest(), off

    def _unpack_ack(self, buf, off: int):
        (seq,) = _I64.unpack_from(buf, off)
        return UpdateAck(seq=seq), off + 8

    def _unpack_update(self, buf, off: int):
        (seq,) = _I64.unpack_from(buf, off)
        distances, off = self._read_pairs(buf, off + 8)
        return UpdatePayload(distances=distances, seq=seq), off

    def _unpack_delta(self, buf, off: int):
        (seq,) = _I64.unpack_from(buf, off)
        off += 8
        adds, off = self._read_pairs(buf, off)
        distances, off = self._read_pairs(buf, off)
        removals, off = self._read_oid_list(buf, off)
        return (
            UpdateDeltaPayload(
                adds=adds, distances=distances, removals=removals, seq=seq
            ),
            off,
        )

    def _unpack_back_call(self, buf, off: int):
        ti, ts, os_, on, rs, rn, seq = struct.unpack_from("<HqHqHqq", buf, off)
        table = self._sites
        return (
            BackCall(
                trace_id=TraceId(initiator=table[ti], seq=ts),
                target=ObjectId(site=table[os_], serial=on),
                reply_to=FrameId(site=table[rs], seq=rn),
                seq=seq,
            ),
            off + 38,
        )

    def _unpack_back_reply(self, buf, off: int):
        ti, ts, rs, rn, verdict, timed_out = struct.unpack_from(
            "<HqHqBB", buf, off
        )
        off += 22
        expires, off = self._read_opt_float(buf, off)
        (count,) = _U16.unpack_from(buf, off)
        off += 2
        table = self._sites
        if count:
            indices = struct.unpack_from(f"<{count}H", buf, off)
            off += 2 * count
            participants = frozenset(table[i] for i in indices)
        else:
            participants = frozenset()
        return (
            BackReply(
                trace_id=TraceId(initiator=table[ti], seq=ts),
                reply_to=FrameId(site=table[rs], seq=rn),
                verdict=_VERDICTS[verdict],
                participants=participants,
                cache_expires_at=expires,
                timed_out=bool(timed_out),
            ),
            off,
        )

    def _unpack_back_outcome(self, buf, off: int):
        ti, ts, verdict = struct.unpack_from("<HqB", buf, off)
        off += 11
        expires, off = self._read_opt_float(buf, off)
        return (
            BackOutcome(
                trace_id=TraceId(initiator=self._sites[ti], seq=ts),
                verdict=_VERDICTS[verdict],
                cache_expires_at=expires,
            ),
            off,
        )

    def _unpack_call_batch(self, buf, off: int):
        (count,) = _U16.unpack_from(buf, off)
        off += 2
        calls = []
        for _ in range(count):
            call, off = self._unpack_back_call(buf, off)
            calls.append(call)
        return BackCallBatch(calls=tuple(calls)), off

    def _unpack_reply_batch(self, buf, off: int):
        (count,) = _U16.unpack_from(buf, off)
        off += 2
        replies = []
        for _ in range(count):
            reply, off = self._unpack_back_reply(buf, off)
            replies.append(reply)
        return BackReplyBatch(replies=tuple(replies)), off

    def _unpack_insert_request(self, buf, off: int):
        site, serial, pin, release, seq = struct.unpack_from("<HqHBq", buf, off)
        return (
            InsertRequest(
                target=ObjectId(site=self._sites[site], serial=serial),
                pin_holder=None if pin == _NO_SITE else self._sites[pin],
                release_owner_custody=bool(release),
                seq=seq,
            ),
            off + 21,
        )

    def _unpack_insert_done(self, buf, off: int):
        site, serial, seq = struct.unpack_from("<Hqq", buf, off)
        return (
            InsertDone(
                target=ObjectId(site=self._sites[site], serial=serial), seq=seq
            ),
            off + 18,
        )

    def _unpack_unpin(self, buf, off: int):
        site, serial, seq = struct.unpack_from("<Hqq", buf, off)
        return (
            UnpinRequest(
                target=ObjectId(site=self._sites[site], serial=serial), seq=seq
            ),
            off + 18,
        )

    def _unpack_hop(self, buf, off: int):
        (length,) = _U16.unpack_from(buf, off)
        off += 2
        name = bytes(buf[off : off + length]).decode("utf-8")
        off += length
        site, serial, seq = struct.unpack_from("<Hqq", buf, off)
        return (
            MutatorHop(
                mutator=name,
                target=ObjectId(site=self._sites[site], serial=serial),
                seq=seq,
            ),
            off + 18,
        )

    def _unpack_copy(self, buf, off: int):
        rs, rn, ds, dn, pin, seq = struct.unpack_from("<HqHqHq", buf, off)
        table = self._sites
        return (
            RemoteCopy(
                ref=ObjectId(site=table[rs], serial=rn),
                dest_holder=ObjectId(site=table[ds], serial=dn),
                pin_holder=None if pin == _NO_SITE else table[pin],
                seq=seq,
            ),
            off + 30,
        )

    def _read_trial(self, buf, off: int) -> Tuple[Tuple[SiteId, int], int]:
        site, serial = struct.unpack_from("<Hq", buf, off)
        return (self._sites[site], serial), off + 10

    def _read_credit(self, buf, off: int) -> Tuple[Fraction, int]:
        numerator, denominator = struct.unpack_from("<qq", buf, off)
        return Fraction(numerator, denominator), off + 16

    def _read_site_list(self, buf, off: int) -> Tuple[Tuple[SiteId, ...], int]:
        (count,) = _U16.unpack_from(buf, off)
        off += 2
        if not count:
            return (), off
        indices = struct.unpack_from(f"<{count}H", buf, off)
        table = self._sites
        return tuple(table[i] for i in indices), off + 2 * count

    def _unpack_trial_mark(self, buf, off: int):
        trial, off = self._read_trial(buf, off)
        targets, off = self._read_oid_list(buf, off)
        credit, off = self._read_credit(buf, off)
        (seq,) = _I64.unpack_from(buf, off)
        return (
            TrialMark(trial=trial, targets=targets, credit=credit, seq=seq),
            off + 8,
        )

    def _unpack_trial_rescue_start(self, buf, off: int):
        trial, off = self._read_trial(buf, off)
        member_sites, off = self._read_site_list(buf, off)
        credit, off = self._read_credit(buf, off)
        (seq,) = _I64.unpack_from(buf, off)
        return (
            TrialRescueStart(
                trial=trial, member_sites=member_sites, credit=credit, seq=seq
            ),
            off + 8,
        )

    def _unpack_trial_rescue(self, buf, off: int):
        trial, off = self._read_trial(buf, off)
        targets, off = self._read_oid_list(buf, off)
        member_sites, off = self._read_site_list(buf, off)
        credit, off = self._read_credit(buf, off)
        (seq,) = _I64.unpack_from(buf, off)
        return (
            TrialRescue(
                trial=trial,
                targets=targets,
                member_sites=member_sites,
                credit=credit,
                seq=seq,
            ),
            off + 8,
        )

    def _unpack_trial_ack(self, buf, off: int):
        trial, off = self._read_trial(buf, off)
        phase, joined, dirty = struct.unpack_from("<BBB", buf, off)
        off += 3
        credit, off = self._read_credit(buf, off)
        (seq,) = _I64.unpack_from(buf, off)
        return (
            TrialAck(
                trial=trial,
                phase=_TRIAL_PHASES[phase],
                credit=credit,
                joined=bool(joined),
                dirty=bool(dirty),
                seq=seq,
            ),
            off + 8,
        )

    def _unpack_trial_collect(self, buf, off: int):
        trial, off = self._read_trial(buf, off)
        (seq,) = _I64.unpack_from(buf, off)
        return TrialCollect(trial=trial, seq=seq), off + 8

    def _unpack_trial_abort(self, buf, off: int):
        trial, off = self._read_trial(buf, off)
        (seq,) = _I64.unpack_from(buf, off)
        return TrialAbort(trial=trial, seq=seq), off + 8

    # -- records and blobs ---------------------------------------------------

    def pack_record(self, deliver_at: float, message: Message) -> bytes:
        """Encode one routed message as a self-contained record."""
        flags = _FLAG_DUP if message.dup else 0
        entry = self._packers.get(type(message.payload))
        if entry is not None:
            kind, packer = entry
            out: List[bytes] = []
            try:
                packer(out, message.payload)
                src = self._site(message.src)
                dst = self._site(message.dst)
            except (_Unpackable, struct.error):
                pass
            else:
                body = b"".join(out)
                return (
                    _HEADER.pack(
                        kind, flags, src, dst, message.uid, deliver_at, len(body)
                    )
                    + body
                )
        body = pickle.dumps(message.payload, protocol=pickle.HIGHEST_PROTOCOL)
        return (
            _HEADER.pack(
                _KIND_PICKLED,
                flags,
                self._index[message.src],
                self._index[message.dst],
                message.uid,
                deliver_at,
                len(body),
            )
            + body
        )

    def pack_blob(self, records: Sequence[bytes]) -> bytes:
        """Concatenate already-encoded records into one framed blob."""
        return _BLOB_PREFIX.pack(len(records)) + b"".join(records)

    def pack_routed(self, routed: Sequence[RoutedMessage]) -> bytes:
        """Encode a batch of (deliver_at, message) pairs as one blob."""
        return self.pack_blob(
            [self.pack_record(deliver_at, message) for deliver_at, message in routed]
        )

    def scan_blob(
        self, blob
    ) -> Iterator[Tuple[float, int, int, int, int, "memoryview"]]:
        """Yield ``(deliver_at, dst, src, kind, uid, record)`` per record.

        Routing metadata comes from the fixed header alone -- payload bytes
        are never decoded -- and ``record`` is a zero-copy memoryview of the
        whole record, ready to be re-framed into another blob.
        """
        view = memoryview(blob)
        (count,) = _BLOB_PREFIX.unpack_from(view, 0)
        off = _BLOB_PREFIX.size
        for _ in range(count):
            kind, _flags, src, dst, uid, deliver_at, length = _HEADER.unpack_from(
                view, off
            )
            end = off + _HEADER.size + length
            yield deliver_at, dst, src, kind, uid, view[off:end]
            off = end

    def unpack_record(self, record) -> RoutedMessage:
        """Decode one self-contained record into its (deliver_at, Message)."""
        view = memoryview(record)
        kind, flags, src, dst, uid, deliver_at, length = _HEADER.unpack_from(
            view, 0
        )
        off = _HEADER.size
        if kind == _KIND_PICKLED:
            payload = pickle.loads(view[off : off + length])
        else:
            payload, end = self._unpackers[kind](view, off)
            if end != off + length:
                raise SimulationError(
                    f"wire record length mismatch for kind {kind}: "
                    f"decoded {end - off}, framed {length}"
                )
        return (
            deliver_at,
            Message(
                self._sites[src],
                self._sites[dst],
                payload,
                uid,
                bool(flags & _FLAG_DUP),
            ),
        )

    def unpack_blob(self, blob) -> List[RoutedMessage]:
        """Decode a blob back into (deliver_at, Message) pairs, in order."""
        return [self.unpack_record(entry[-1]) for entry in self.scan_blob(blob)]
