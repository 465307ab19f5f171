"""Packed wire format for cross-shard coordination traffic.

The parallel engine's coordinator and its shard workers exchange batches of
in-flight messages at every safe-time window.  Pickling each
``(deliver_at, Message)`` pair costs class-descriptor traffic and per-field
overhead for what is, on the hot paths, a handful of small integers: Allen &
Terriberry (PAPERS.md) build their whole data plane around compact batched
reference-tracking records, and this module does the same at the process
boundary.

A *record* is one routed message: a fixed header plus a kind-specific
payload section.

``+------+-------+-----+-----+-----+------------+-------------+---------+``
``| kind | flags | src | dst | uid | deliver_at | payload_len | payload |``
``|  u8  |  u8   | u16 | u16 | i64 |    f64     |     u32     |   ...   |``

**The ``_KINDS`` table is the format** of the payload section: one row per
kind -- its code, its payload class, its fields *in wire order* -- each field
with a type from ``_field_codecs``; one loop each way (``_encode_fields`` /
``_decode_fields``) walks a row.  Kind codes and field order *are* the bytes.
Site ids are interned against the simulation's sorted site list (both ends
derive the same table from the pre-fork site set), object ids become
``(site u16, serial i64)`` pairs, lists ship as bulk ``struct`` columns, and
every field round-trips exactly -- enums as stable codes, credits as integer
pairs.  A payload class without a row, or a value
outside a field's compact range, ships as an individually pickled record
(``kind == 0``), so the format is total over arbitrary payloads.

A *blob* is the records of one (window, destination shard) pair behind a
record count; the coordinator routes by scanning headers alone.  Blobs come
from another process: a frame that does not parse raises
:class:`~repro.errors.SimulationError`, whatever is wrong with it.

To add a kind: one ``_KINDS`` row (checked against the dataclass at import),
one strategy and one ``GOLDEN_CASES`` entry in
``tests/unit/test_wire_format.py``, re-recorded into
``tests/golden/wire_records.json``.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

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
from .message import Message

#: (deliver_at, message) pairs as prepared sender-side by Network.send.
RoutedMessage = Tuple[float, Message]

_HEADER = struct.Struct("<BBHHqdI")
_BLOB_PREFIX = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_REF = struct.Struct("<Hq")
_CREDIT = struct.Struct("<qq")

_FLAG_DUP = 0x01
_KIND_PICKLED = 0
#: Sentinel for ``Optional[SiteId] = None`` in packed site-index slots.
_NO_SITE = 0xFFFF

#: What a field writer raises for a value outside its compact range: a site
#: or a code missing from its table, or a number ``struct`` refuses -- an
#: i32 distance, a u16/u32 count, an i64 credit share (denominators multiply
#: at every fan-out split).  It demotes the whole record to the pickled
#: fallback; correctness never depends on fitting.
_DOES_NOT_FIT = (KeyError, struct.error)

#: (kind code, payload class, ((field, field type), ...)) in wire order.
# fmt: off
_KINDS = (
    (1, UpdatePayload, (("seq", "i64"), ("distances", "pairs"))),
    (2, UpdateDeltaPayload,
     (("seq", "i64"), ("adds", "pairs"), ("distances", "pairs"),
      ("removals", "oids"))),
    (3, UpdateRefreshRequest, ()),
    (4, UpdateAck, (("seq", "i64"),)),
    (5, BackCall,
     (("trace_id", "trace"), ("target", "oid"), ("reply_to", "frame"), ("seq", "i64"))),
    (6, BackReply,
     (("trace_id", "trace"), ("reply_to", "frame"), ("verdict", "verdict"),
      ("timed_out", "bool"), ("participants", "siteset"))),
    (7, BackOutcome, (("trace_id", "trace"), ("verdict", "verdict"))),
    (8, BackCallBatch, (("calls", ("batch", BackCall)),)),
    (9, BackReplyBatch, (("replies", ("batch", BackReply)),)),
    (10, InsertRequest,
     (("target", "oid"), ("pin_holder", "opt_site"),
      ("release_owner_custody", "bool"), ("seq", "i64"))),
    (11, InsertDone, (("target", "oid"), ("seq", "i64"))),
    (12, UnpinRequest, (("target", "oid"), ("seq", "i64"))),
    (13, MutatorHop, (("mutator", "str"), ("target", "oid"), ("seq", "i64"))),
    (14, RemoteCopy,
     (("ref", "oid"), ("dest_holder", "oid"), ("pin_holder", "opt_site"),
      ("seq", "i64"))),
    (15, TrialMark,
     (("trial", "trial"), ("targets", "oids"), ("credit", "credit"),
      ("seq", "i64"))),
    (16, TrialRescueStart,
     (("trial", "trial"), ("member_sites", "sites"), ("credit", "credit"),
      ("seq", "i64"))),
    (17, TrialRescue,
     (("trial", "trial"), ("targets", "oids"), ("member_sites", "sites"),
      ("credit", "credit"), ("seq", "i64"))),
    (18, TrialAck,
     (("trial", "trial"), ("phase", "phase"), ("joined", "bool"), ("dirty", "bool"),
      ("credit", "credit"), ("seq", "i64"))),
    (19, TrialCollect, (("trial", "trial"), ("seq", "i64"))),
    (20, TrialAbort, (("trial", "trial"), ("seq", "i64"))),
)
# fmt: on


def _check_table(kinds) -> None:
    """Every row names exactly its class's fields, each once -- a field without
    an entry would decode to its default, and in sharded runs only."""
    for kind, cls, fields in kinds:
        named = sorted(name for name, _type in fields)
        declared = sorted(field.name for field in dataclasses.fields(cls))
        if named != declared:
            declares = f"{cls.__name__} declares {declared}"
            raise TypeError(f"wire table row {kind} names {named} but {declares}")


_check_table(_KINDS)


def _encode_fields(writers, out: List[bytes], payload) -> None:
    for name, write in writers:
        write(out, getattr(payload, name))


def _decode_fields(cls, readers, buf, off: int):
    values = {}
    name = None
    try:
        for name, read in readers:
            values[name], off = read(buf, off)
    except Exception as exc:  # bytes from another process: anything can be wrong
        raise SimulationError(
            f"cannot decode {cls.__name__}.{name} at offset {off}"
        ) from exc
    return cls(**values), off


def _field_codecs(sites: List[SiteId], index: Dict[SiteId, int]) -> dict:
    """The field types over one site table: name -> ``(write, read)``, where
    ``write(out, value)`` appends the field's bytes to the list ``out`` and
    ``read(buf, off)`` returns ``(value, offset past the field)``."""

    def write_i64(out, value):
        out.append(_I64.pack(value))

    def read_i64(buf, off):
        return _I64.unpack_from(buf, off)[0], off + 8

    def ref(make):
        # A (site, number) pair: ObjectId, TraceId, FrameId or a trial key.
        def write(out, value):
            site, number = value
            out.append(_REF.pack(index[site], number))

        def read(buf, off):
            site, number = _REF.unpack_from(buf, off)
            return make(sites[site], number), off + 10

        return write, read

    def write_opt_site(out, value):
        out.append(_U16.pack(_NO_SITE if value is None else index[value]))

    def read_opt_site(buf, off):
        (site,) = _U16.unpack_from(buf, off)
        return (None if site == _NO_SITE else sites[site]), off + 2

    def code(values):
        # One byte: the value's position in ``values``.
        codes = {value: bytes((n,)) for n, value in enumerate(values)}

        def write(out, value):
            out.append(codes[value])

        def read(buf, off):
            return values[buf[off]], off + 1

        return write, read

    def write_str(out, value):
        data = value.encode("utf-8")
        out.append(_U16.pack(len(data)) + data)

    def read_str(buf, off):
        end = off + 2 + _U16.unpack_from(buf, off)[0]
        return str(buf[off + 2 : end], "utf-8"), end

    def write_credit(out, value):
        out.append(_CREDIT.pack(value.numerator, value.denominator))

    def read_credit(buf, off):
        numerator, denominator = _CREDIT.unpack_from(buf, off)
        return Fraction(numerator, denominator), off + 16

    def site_array(arrange, collect):
        # u16 count, then that many site indices.
        def write(out, value):
            indices = arrange([index[site] for site in value])
            out.append(struct.pack(f"<H{len(indices)}H", len(indices), *indices))

        def read(buf, off):
            (count,) = _U16.unpack_from(buf, off)
            indices = struct.unpack_from(f"<{count}H", buf, off + 2)
            return collect([sites[i] for i in indices]), off + 2 + 2 * count

        return write, read

    def write_oids(out, oids):
        # u32 count, then the site-index column, then the serial column.
        count = len(oids)
        out.append(_U32.pack(count))
        if count:
            out.append(struct.pack(f"<{count}H", *[index[o.site] for o in oids]))
            out.append(struct.pack(f"<{count}q", *[o.serial for o in oids]))

    def read_oids(buf, off):
        (count,) = _U32.unpack_from(buf, off)
        off += 4
        indices = struct.unpack_from(f"<{count}H", buf, off)
        serials = struct.unpack_from(f"<{count}q", buf, off + 2 * count)
        oids = [ObjectId(sites[i], n) for i, n in zip(indices, serials)]
        return tuple(oids), off + 10 * count

    def write_pairs(out, pairs):
        # An oid list, then (when non-empty) the i32 value column.
        write_oids(out, [oid for oid, _value in pairs])
        if pairs:
            out.append(struct.pack(f"<{len(pairs)}i", *[v for _oid, v in pairs]))

    def read_pairs(buf, off):
        oids, off = read_oids(buf, off)
        values = struct.unpack_from(f"<{len(oids)}i", buf, off)
        return tuple(zip(oids, values)), off + 4 * len(oids)

    return {
        "i64": (write_i64, read_i64),
        "bool": code((False, True)),
        "oid": ref(ObjectId),
        "trace": ref(TraceId),
        "frame": ref(FrameId),
        "trial": ref(lambda site, number: (site, number)),
        "opt_site": (write_opt_site, read_opt_site),
        "verdict": code((TraceOutcome.LIVE, TraceOutcome.GARBAGE)),
        "phase": code(("mark", "rescue")),
        "str": (write_str, read_str),
        "credit": (write_credit, read_credit),
        "sites": site_array(list, tuple),
        "siteset": site_array(sorted, frozenset),
        "oids": (write_oids, read_oids),
        "pairs": (write_pairs, read_pairs),
    }


def _batch_codec(writers, cls, readers):
    """u16 count, then that many bodies of one kind, back to back."""

    def write(out, items):
        out.append(_U16.pack(len(items)))
        for item in items:
            _encode_fields(writers, out, item)

    def read(buf, off):
        (count,) = _U16.unpack_from(buf, off)
        off += 2
        items = []
        for _ in range(count):
            item, off = _decode_fields(cls, readers, buf, off)
            items.append(item)
        return tuple(items), off

    return write, read


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
        self._index: Dict[SiteId, int] = {s: i for i, s in enumerate(self._sites)}
        codecs = _field_codecs(self._sites, self._index)
        #: payload class -> (kind, ((field, write), ...))
        self._writers: Dict[type, Tuple[int, tuple]] = {}
        #: kind -> (payload class, ((field, read), ...))
        self._readers: Dict[int, Tuple[type, tuple]] = {}
        for kind, cls, fields in _KINDS:
            writers = tuple((name, codecs[ftype][0]) for name, ftype in fields)
            readers = tuple((name, codecs[ftype][1]) for name, ftype in fields)
            self._writers[cls] = kind, writers
            self._readers[kind] = cls, readers
            # The field type of a later row that ships a batch of this one.
            codecs["batch", cls] = _batch_codec(writers, cls, readers)

    @property
    def sites(self) -> List[SiteId]:
        return list(self._sites)

    def site_index(self, site_id: SiteId) -> int:
        return self._index[site_id]

    def pack_record(self, deliver_at: float, message: Message) -> bytes:
        """Encode one routed message as a self-contained record."""
        src, dst, payload, uid, dup = message
        body = None
        entry = self._writers.get(type(payload))
        if entry is not None:
            kind, writers = entry
            out: List[bytes] = []
            try:
                _encode_fields(writers, out, payload)
                body = b"".join(out)
            except _DOES_NOT_FIT:
                pass
        if body is None:
            kind = _KIND_PICKLED
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        index, flags = self._index, _FLAG_DUP if dup else 0
        header = (kind, flags, index[src], index[dst], uid, deliver_at, len(body))
        return _HEADER.pack(*header) + body

    def pack_blob(self, records: Sequence[bytes]) -> bytes:
        """Concatenate already-encoded records into one framed blob."""
        return _BLOB_PREFIX.pack(len(records)) + b"".join(records)

    def pack_routed(self, routed: Sequence[RoutedMessage]) -> bytes:
        """Encode a batch of (deliver_at, message) pairs as one blob."""
        return self.pack_blob([self.pack_record(at, message) for at, message in routed])

    def scan_blob(
        self, blob
    ) -> Iterator[Tuple[float, int, int, int, int, "memoryview"]]:
        """Yield ``(deliver_at, dst, src, kind, uid, record)`` per record.

        Routing metadata comes from the fixed header alone -- payload bytes
        are never decoded -- and ``record`` is a zero-copy memoryview of the
        whole record, ready to be re-framed into another blob.  The framing
        is checked as it is walked: every record must end inside the blob
        and the last one must end it.
        """
        view = memoryview(blob)
        size = len(view)
        off = _BLOB_PREFIX.size
        header = _HEADER.unpack_from
        try:
            (count,) = _BLOB_PREFIX.unpack_from(view, 0)
            for _ in range(count):
                kind, _flags, src, dst, uid, deliver_at, length = header(view, off)
                end = off + _HEADER.size + length
                if end > size:
                    raise SimulationError(
                        f"wire blob truncated: the record at offset {off} ends at "
                        f"{end}, past the blob's {size} bytes"
                    )
                yield deliver_at, dst, src, kind, uid, view[off:end]
                off = end
        except struct.error as exc:
            raise SimulationError(
                f"wire blob truncated: no whole header at offset {off} of {size} bytes"
            ) from exc
        if off != size:
            raise SimulationError(
                f"wire blob has {size - off} bytes left over after its {count} records"
            )

    def unpack_record(self, record) -> RoutedMessage:
        """Decode one self-contained record into its (deliver_at, Message)."""
        view = memoryview(record)
        kind = length = None
        try:
            kind, flags, src, dst, uid, deliver_at, length = _HEADER.unpack_from(view)
            framed_end = _HEADER.size + length
            if kind == _KIND_PICKLED:
                payload = pickle.loads(view[_HEADER.size : framed_end])
                end = framed_end
            else:
                cls, readers = self._readers[kind]
                payload, end = _decode_fields(cls, readers, view, _HEADER.size)
            sites = self._sites
            message = Message(
                sites[src], sites[dst], payload, uid, bool(flags & _FLAG_DUP)
            )
        except Exception as exc:  # bytes from another process: anything can be wrong
            raise SimulationError(
                f"malformed wire record: kind {kind}, framed length {length}, "
                f"{len(view)} bytes"
            ) from exc
        if end != framed_end:
            raise SimulationError(
                f"wire record length mismatch for kind {kind}: "
                f"decoded {end - _HEADER.size}, framed {length}"
            )
        return deliver_at, message

    def unpack_blob(self, blob) -> List[RoutedMessage]:
        """Decode a blob back into (deliver_at, Message) pairs, in order."""
        return [self.unpack_record(entry[-1]) for entry in self.scan_blob(blob)]
