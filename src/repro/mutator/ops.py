"""Mutator protocol messages.

Two payloads cover every inter-site mutator action in the paper's model:

- :class:`MutatorHop` -- the mutator traverses an inter-site reference; the
  receiving site applies the transfer barrier to the target's inref before
  the mutator continues there (section 6.1.1);
- :class:`RemoteCopy` -- a reference is copied into an object at another
  site; the receiving site runs the remote-copy case analysis of section
  6.1.2 (and the owner applies the transfer barrier when an insert reaches
  it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..ids import ObjectId, SiteId
from ..net.message import Payload


@dataclass(frozen=True)
class MutatorHop(Payload):
    """Mutator ``mutator`` traverses a remote reference to ``target``."""

    mutator: str
    target: ObjectId
    #: Duplicate-suppression sequence number (see InsertRequest.seq): a
    #: replayed hop would fork a phantom second mutator at the destination.
    seq: int = -1

    def with_seq(self, seq: int) -> "MutatorHop":
        return MutatorHop(self.mutator, self.target, seq)

    def carried_refs(self) -> Tuple[ObjectId, ...]:
        # The mutator will stand at ``target`` on arrival; until then the
        # object must stay alive even if all stored paths to it are cut.
        return (self.target,)


@dataclass(frozen=True)
class RemoteCopy(Payload):
    """Copy reference ``ref`` into object ``dest_holder`` at the destination.

    ``pin_holder`` is the sending site if it pinned its outref for ``ref``
    under the insert barrier (it did whenever ``ref`` is remote to it);
    the destination or the owner releases the pin per section 6.1.2.
    """

    ref: ObjectId
    dest_holder: ObjectId
    pin_holder: Optional[SiteId] = None
    #: Duplicate-suppression sequence number (see InsertRequest.seq): a
    #: replayed copy would double-store the reference and double-release
    #: the sender's insert pin.
    seq: int = -1

    def with_seq(self, seq: int) -> "RemoteCopy":
        return RemoteCopy(self.ref, self.dest_holder, self.pin_holder, seq)

    def carried_refs(self) -> Tuple[ObjectId, ...]:
        # Both ends are held by the mutator while the copy is in flight.
        return (self.ref, self.dest_holder)
