"""Message envelope and payload base class.

Protocol modules (insert protocol, update messages, back-trace calls, the
mutator, baseline collectors) each define their own payload dataclasses
deriving from :class:`Payload`.  The envelope adds addressing and bookkeeping
shared by all of them.

``Payload.kind()`` is the metrics key: benchmark E1 counts back-trace call,
reply, and report messages by this name to check the paper's 2E + N bound.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from ..ids import SiteId


class Payload:
    """Base class for message payloads.  Subclass per protocol message.

    Declares empty ``__slots__`` so that hot payload dataclasses (updates,
    back-trace calls, inserts) can opt into ``slots=True`` and actually shed
    their per-instance ``__dict__``; subclasses that don't opt in still get
    a ``__dict__`` automatically.
    """

    __slots__ = ()

    @classmethod
    def kind(cls) -> str:
        """Short name used for metrics aggregation."""
        return cls.__name__

    def carried_refs(self):
        """Object references this message carries to its destination.

        The omniscient oracle treats in-flight carried references as roots:
        until delivery they can still be stored into the destination's heap,
        so the objects they name must not be collected.  Payloads that ship
        references (mutator hops/copies, migration) override this.
        """
        return ()

    def size_units(self) -> int:
        """Abstract message size for bandwidth accounting.

        The paper notes back-trace messages are "small and can be piggybacked
        on other messages"; we charge one unit per payload by default and let
        bulk payloads (e.g. object migration) override.
        """
        return 1


_envelope_counter = itertools.count()


class _Envelope(NamedTuple):
    src: SiteId
    dst: SiteId
    payload: Payload
    uid: int
    dup: bool


class Message(_Envelope):
    """An addressed payload in flight.

    An immutable value: nothing may mutate a message between send and
    delivery, and equality, hash and repr go by field.  It is a named tuple
    because the network builds one per message sent -- construction and
    field reads are C tuple operations -- and this subclass only adds what a
    named tuple cannot declare: a ``uid`` default drawn from the module
    counter, so every envelope built without one is unique.

    ``dup`` marks an envelope injected by fault-plan duplication
    (:mod:`repro.net.faults`): the copy travels and delivers like any other
    message but is accounted separately (``messages.duplicated.*`` /
    ``messages.dup_delivered.*``) so sent/delivered/dropped counters
    reconcile per payload kind.  Each copy gets its own ``uid``.
    """

    __slots__ = ()

    def __new__(
        cls,
        src: SiteId,
        dst: SiteId,
        payload: Payload,
        uid: Optional[int] = None,
        dup: bool = False,
    ):
        if uid is None:
            uid = next(_envelope_counter)
        return tuple.__new__(cls, (src, dst, payload, uid, dup))

    @property
    def kind(self) -> str:
        return self.payload.kind()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}({self.src}->{self.dst})"
