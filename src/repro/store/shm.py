"""Shared-memory arena for the flat-graph mirror.

The sharded engine forks once and then drives windows over pipes; without
help, any graph-level statistic the coordinator wants (how many objects are
resident on each site, say) costs a round-trip broadcast per query.  This
module carves one :class:`multiprocessing.shared_memory.SharedMemory`
segment into fixed per-site *regions* so the flat mirror's hot buffers live
in memory both sides can see:

``+--------+-------------------+------------------+--------------------+``
``| header | alive bytes [cap] | mark bytes [cap] |  CSR area (int64)  |``
``+--------+-------------------+------------------+--------------------+``

- The **header** (32 bytes) holds the resident-object count, a flags word,
  and the declared capacities.  The owning worker updates the count on
  every allocation/sweep; the coordinator reads headers directly instead
  of broadcasting.
- **alive** / **mark** are the heap's liveness and trace bitmaps
  (:mod:`repro.store.heap` swaps its bytearrays for memoryviews over the
  region on attach).  They work as plain buffers -- no numpy required --
  and double as zero-copy ``uint8`` views for the vectorized kernel.
- The **CSR area** receives the int64 adjacency arrays the heap builds for
  :func:`repro.core.distance.trace_clean_phase_vector`; when numpy is
  absent the area simply goes unused (the pure-Python flat kernel reads
  the adjacency lists directly, and the bitmaps above still live in the
  arena).

The arena optionally carries a second area after the site regions: the
**ring area** of the direct shard-to-shard data path.  For W workers it
holds W*W fixed-size byte rings, one per *ordered* worker pair; ring
``(i, j)`` is written only by worker ``i`` and read only by worker ``j``,
which makes every ring single-producer single-consumer.  The rings themselves
are position-free: all cursors (write positions, certified read limits,
confirmed consumption) travel through the coordinator's command/reply
exchange, so no process ever reads a position another process is
concurrently writing -- no locks, no torn cursor reads, and deterministic
overflow behaviour (see :class:`SpscRing`).

Ownership and lifetime rules (also documented in DESIGN.md):

1. The coordinator creates the arena *before* forking, sized from the
   pre-fork heaps; the ``MAP_SHARED`` mapping is inherited by every worker.
   Segments created after the fork would not be shared, so the arena never
   grows -- a heap that outgrows its region *spills*: it copies the bitmaps
   back to private bytearrays, raises a ``RuntimeWarning``, sets the
   overflow flag in its header, and carries on locally.  Correctness never
   depends on fitting.
2. Each region is written by exactly one process: the worker that owns the
   site.  The coordinator only ever reads, and only between windows, when
   every worker is parked in ``recv`` on its command pipe -- so no locks.
3. The coordinator unlinks the segment in ``close()`` (with a finalizer
   backstop); workers drop their inherited mapping when they exit.
"""

from __future__ import annotations

import struct
import warnings
import weakref
from typing import Dict, List, Optional, Sequence

from ..errors import SimulationError
from ..ids import SiteId

try:  # pragma: no cover - exercised via the availability flag
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

_HEADER = struct.Struct("<qqqq")  # alive_count, flags, slot_capacity, csr_bytes
HEADER_BYTES = _HEADER.size

FLAG_SLOTS_OVERFLOW = 0x1  # bitmaps spilled back to private buffers
FLAG_CSR_LOCAL = 0x2  # adjacency arrays did not fit; built privately

#: Per-slot CSR budget: ``2*(n+1) + edges`` int64 words for the local CSR
#: plus the same again for the remote one; ~3 edges/object is generous for
#: the paper's workloads, and overflow just means a private build.
CSR_BYTES_PER_SLOT = 48

DEFAULT_SLOT_CAPACITY = 4096


def _pow2_at_least(value: int) -> int:
    result = 1
    while result < value:
        result <<= 1
    return result


def shared_memory_available() -> bool:
    return _shared_memory is not None


class SiteRegion:
    """One site's slice of the arena: header access plus buffer views."""

    def __init__(self, buf: memoryview, offset: int, slot_capacity: int,
                 csr_bytes: int):
        self._buf = buf
        self._offset = offset
        self.slot_capacity = slot_capacity
        self.csr_bytes = csr_bytes
        base = offset + HEADER_BYTES
        self.alive: memoryview = buf[base : base + slot_capacity]
        self.mark: memoryview = buf[base + slot_capacity : base + 2 * slot_capacity]
        csr_base = base + 2 * slot_capacity
        self.csr: memoryview = buf[csr_base : csr_base + csr_bytes]
        _HEADER.pack_into(buf, offset, 0, 0, slot_capacity, csr_bytes)

    def set_alive_count(self, count: int) -> None:
        struct.pack_into("<q", self._buf, self._offset, count)

    def alive_count(self) -> int:
        return struct.unpack_from("<q", self._buf, self._offset)[0]

    def flags(self) -> int:
        return struct.unpack_from("<q", self._buf, self._offset + 8)[0]

    def set_flag(self, flag: int) -> None:
        struct.pack_into("<q", self._buf, self._offset + 8, self.flags() | flag)

    def release_views(self) -> None:
        for view in (self.alive, self.mark, self.csr):
            view.release()


_RING_FRAME = struct.Struct("<I")
RING_FRAME_BYTES = _RING_FRAME.size


class SpscRing:
    """A single-producer single-consumer byte ring over a fixed buffer.

    Records are framed with a u32 length prefix and written at monotonically
    increasing *logical* positions; the physical offset is ``pos %
    capacity`` with split copies across the wrap point.  The ring holds no
    positions itself: the writer owns its write position, the reader owns
    its read position, and the free-space check uses whatever consumption
    point the caller has been *told* is safe (in the parallel engine, the
    coordinator-certified cursor).  That makes the class pure and
    deterministic -- the same sequence of calls always produces the same
    bytes -- and directly property-testable over a plain ``bytearray``.

    A write that does not fit returns ``None`` instead of blocking or
    overwriting (the caller spills to its fallback path); a read whose
    frame would cross the certified limit raises -- with
    coordinator-certified cursors that can only mean corruption, so it is
    an invariant check, not a retry condition.
    """

    __slots__ = ("buf", "capacity")

    def __init__(self, buf):
        self.buf = buf
        self.capacity = len(buf)
        if self.capacity < RING_FRAME_BYTES + 1:
            raise SimulationError(
                f"ring capacity {self.capacity} cannot frame any record"
            )

    def free_space(self, write_pos: int, consumed: int) -> int:
        """Bytes writable given the last position certified as consumed."""
        return self.capacity - (write_pos - consumed)

    def _copy_in(self, pos: int, data: bytes) -> None:
        offset = pos % self.capacity
        first = min(len(data), self.capacity - offset)
        self.buf[offset : offset + first] = data[:first]
        if first < len(data):
            self.buf[0 : len(data) - first] = data[first:]

    def _copy_out(self, pos: int, length: int) -> bytes:
        offset = pos % self.capacity
        first = min(length, self.capacity - offset)
        chunk = bytes(self.buf[offset : offset + first])
        if first < length:
            chunk += bytes(self.buf[0 : length - first])
        return chunk

    def try_write(
        self, record: bytes, write_pos: int, consumed: int
    ) -> Optional[int]:
        """Frame and write one record; return the new write position.

        ``None`` when the record (frame included) does not fit in the free
        space implied by ``consumed`` -- never a partial write, so the
        reader side can always trust certified byte ranges.
        """
        needed = RING_FRAME_BYTES + len(record)
        if needed > self.capacity - (write_pos - consumed):
            return None
        self._copy_in(write_pos, _RING_FRAME.pack(len(record)))
        self._copy_in(write_pos + RING_FRAME_BYTES, bytes(record))
        return write_pos + needed

    def read(self, start: int, limit: int) -> List[bytes]:
        """Return every framed record in ``[start, limit)``.

        ``limit`` must be a certified write position: a length prefix that
        would run past it (or that could never fit the ring) is a torn or
        corrupt frame and raises :class:`SimulationError`.
        """
        records: List[bytes] = []
        pos = start
        while pos < limit:
            if limit - pos < RING_FRAME_BYTES:
                raise SimulationError(
                    f"torn ring frame: {limit - pos} trailing bytes cannot "
                    "hold a length prefix"
                )
            (length,) = _RING_FRAME.unpack(self._copy_out(pos, RING_FRAME_BYTES))
            if (
                length > self.capacity - RING_FRAME_BYTES
                or pos + RING_FRAME_BYTES + length > limit
            ):
                raise SimulationError(
                    f"torn ring frame at position {pos}: declared size "
                    f"{length} exceeds the certified limit {limit}"
                )
            records.append(self._copy_out(pos + RING_FRAME_BYTES, length))
            pos += RING_FRAME_BYTES + length
        return records


class SharedArena:
    """A pre-fork shared segment holding one region per site."""

    def __init__(
        self,
        site_ids: Sequence[SiteId],
        slot_capacity: int = DEFAULT_SLOT_CAPACITY,
        csr_bytes: Optional[int] = None,
        name_hint: str = "repro-arena",
        ring_workers: int = 0,
        ring_bytes: int = 0,
    ):
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._sites: List[SiteId] = sorted(site_ids)
        # Keep the int64 CSR area 8-aligned: header is 32 bytes and the two
        # bitmap blocks stay a multiple of 8 as long as the capacity is.
        self.slot_capacity = max(8, _pow2_at_least(slot_capacity))
        self.csr_bytes = (
            CSR_BYTES_PER_SLOT * self.slot_capacity
            if csr_bytes is None
            else max(0, (csr_bytes // 8) * 8)
        )
        self.ring_workers = ring_workers if ring_bytes > 0 else 0
        self.ring_bytes = ring_bytes if self.ring_workers > 0 else 0
        self._stride = HEADER_BYTES + 2 * self.slot_capacity + self.csr_bytes
        ring_area = self.ring_workers * self.ring_workers * self.ring_bytes
        total = max(1, self._stride * len(self._sites) + ring_area)
        self._shm = _shared_memory.SharedMemory(create=True, size=total)
        self._regions: Dict[SiteId, SiteRegion] = {}
        buf = self._shm.buf
        for index, site_id in enumerate(self._sites):
            self._regions[site_id] = SiteRegion(
                buf, index * self._stride, self.slot_capacity, self.csr_bytes
            )
        # Ring area: W*W fixed slices after the site regions; ring (i, j)
        # carries worker i's records for worker j (i==j slots exist for
        # index arithmetic but are never written).
        self._rings: List[Optional[SpscRing]] = []
        ring_base = self._stride * len(self._sites)
        for index in range(self.ring_workers * self.ring_workers):
            offset = ring_base + index * self.ring_bytes
            self._rings.append(SpscRing(buf[offset : offset + self.ring_bytes]))
        self._closed = False
        # Unlink even if close() is never reached (interpreter teardown,
        # coordinator crash paths); harmless double-unlink is swallowed.
        self._finalizer = weakref.finalize(
            self, SharedArena._cleanup, self._shm
        )

    @classmethod
    def for_heaps(
        cls,
        heap_sizes: Dict[SiteId, int],
        slot_capacity: Optional[int] = None,
        csr_bytes: Optional[int] = None,
        ring_workers: int = 0,
        ring_bytes: int = 0,
    ) -> "SharedArena":
        """Size an arena from the pre-fork heaps: 8x headroom, power of two."""
        if slot_capacity is None:
            largest = max(heap_sizes.values(), default=0)
            slot_capacity = max(DEFAULT_SLOT_CAPACITY, _pow2_at_least(8 * largest))
        return cls(list(heap_sizes), slot_capacity=slot_capacity,
                   csr_bytes=csr_bytes, ring_workers=ring_workers,
                   ring_bytes=ring_bytes)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def region(self, site_id: SiteId) -> SiteRegion:
        return self._regions[site_id]

    def ring(self, src_worker: int, dst_worker: int) -> SpscRing:
        """The ring worker ``src_worker`` writes for worker ``dst_worker``."""
        if not (0 <= src_worker < self.ring_workers
                and 0 <= dst_worker < self.ring_workers):
            raise SimulationError(
                f"no ring for worker pair ({src_worker}, {dst_worker}) in an "
                f"arena sized for {self.ring_workers} workers"
            )
        return self._rings[src_worker * self.ring_workers + dst_worker]

    def total_alive(self) -> Optional[int]:
        """Sum of per-site resident counts, or None if any heap spilled.

        Also None for an arena built with an empty site table: without site
        regions there are no published counts to read, and 0 would be a lie.
        """
        if not self._regions:
            return None
        total = 0
        for region in self._regions.values():
            if region.flags() & FLAG_SLOTS_OVERFLOW:
                return None
            total += region.alive_count()
        return total

    def alive_counts(self) -> Optional[Dict[SiteId, int]]:
        if not self._regions:
            return None
        counts: Dict[SiteId, int] = {}
        for site_id, region in self._regions.items():
            if region.flags() & FLAG_SLOTS_OVERFLOW:
                return None
            counts[site_id] = region.alive_count()
        return counts

    @staticmethod
    def _cleanup(shm) -> None:
        try:
            shm.close()
        except (BufferError, OSError, ValueError):
            # Views may still be exported (a heap holding its bitmap slices);
            # the mapping dies with the process either way.  Still unlink.
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass

    def detach(self) -> None:
        """Worker-side: drop the inherited mapping without unlinking."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for region in self._regions.values():
            region.release_views()
        self._regions.clear()
        self._release_rings()
        try:
            self._shm.close()
        except (BufferError, OSError, ValueError):  # pragma: no cover
            pass

    def _release_rings(self) -> None:
        for ring in self._rings:
            if ring is not None:
                ring.buf.release()
        self._rings = []

    def close(self) -> None:
        """Coordinator-side: drop the mapping and unlink the segment."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for region in self._regions.values():
            region.release_views()
        self._regions.clear()
        self._release_rings()
        self._cleanup(self._shm)


def create_arena(
    heap_sizes: Dict[SiteId, int],
    slot_capacity: Optional[int] = None,
    csr_bytes: Optional[int] = None,
    ring_workers: int = 0,
    ring_bytes: int = 0,
) -> Optional[SharedArena]:
    """Best-effort arena creation: warn and return None where unsupported."""
    if _shared_memory is None:
        warnings.warn(
            "multiprocessing.shared_memory unavailable; parallel engine "
            "runs without a shared arena",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    try:
        return SharedArena.for_heaps(
            heap_sizes, slot_capacity=slot_capacity, csr_bytes=csr_bytes,
            ring_workers=ring_workers, ring_bytes=ring_bytes,
        )
    except (OSError, ValueError, RuntimeError) as exc:
        warnings.warn(
            f"could not create shared-memory arena ({exc}); parallel engine "
            "runs without one",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
