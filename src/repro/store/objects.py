"""Heap objects.

An object is an ordered list of reference slots.  References are
:class:`~repro.ids.ObjectId` values; a reference whose ``site`` differs from
the holder's site is an inter-site (remote) reference.  Duplicate references
are allowed, as in real object fields/arrays, so removal must delete one
occurrence at a time.

The heap stores each object once, as its row (:mod:`repro.store.heap`).  A
:class:`HeapObject` is a transient handle over ``(heap, oid)``: it holds no
slots of its own and resolves ``oid`` on every use, so it raises
:class:`~repro.errors.UnknownObjectError` once the object is swept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

from ..ids import ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from .heap import Heap


class HeapObject:
    """A handle on one object in a site's heap."""

    __slots__ = ("heap", "oid")

    def __init__(self, heap: "Heap", oid: ObjectId):
        self.heap = heap
        self.oid = oid

    @property
    def index(self) -> int:
        """The object's dense index in the heap's rows."""
        return self.heap._row(self.oid)

    @property
    def refs(self) -> List[ObjectId]:
        """A copy of the reference slots, in order."""
        return self.heap._slots(self.index)

    def iter_refs(self) -> Iterator[ObjectId]:
        return iter(self.refs)

    def add_ref(self, target: ObjectId) -> None:
        self.heap.add_ref(self.oid, target)

    def remove_ref(self, target: ObjectId) -> None:
        """Remove one occurrence of ``target``; ``HeapError`` if absent."""
        self.heap.remove_ref(self.oid, target)

    def holds_ref(self, target: ObjectId) -> bool:
        return target in self.refs

    def remote_refs(self) -> List[ObjectId]:
        """References to objects on other sites."""
        return [ref for ref in self.refs if ref.site != self.oid.site]

    def local_refs(self) -> List[ObjectId]:
        """References to objects on this object's own site."""
        return [ref for ref in self.refs if ref.site == self.oid.site]

    @property
    def payload_size(self) -> int:
        return self.heap._payload.get(self.index, 1)

    @payload_size.setter
    def payload_size(self, size: int) -> None:
        index = self.index
        if size == 1:
            self.heap._payload.pop(index, None)
        else:
            self.heap._payload[index] = size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<obj {self.oid}>"
