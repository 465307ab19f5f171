"""The safe insert protocol with the insert barrier (sections 2 and 6.1.2).

When site X sends a reference z (owned by site Z) to site Y:

1. X **pins** its outref for z -- the insert barrier: the outref stays clean
   and cannot be trimmed until Z is known to have the insert.  (If X owns z,
   X instead registers Y in z's inref source list directly; no pin needed.)
2. Y, on receipt, follows the remote-copy cases of section 6.1.2:
   - z owned by Y: apply the transfer barrier to inref z, release X's pin;
   - Y already has an outref for z: clean it if suspected, release X's pin;
   - otherwise: create a clean outref and send an :class:`InsertRequest`
     to Z.
3. Z, on :class:`InsertRequest`, adds Y to inref z's source list (distance 1,
   the conservative new-source estimate), applies the transfer barrier to
   inref z, and notifies X with :class:`InsertDone` so X releases its pin.

Message loss is safe: an unreleased pin only keeps one outref alive longer
than necessary (storage leak, never incorrect collection), matching the
paper's "a safe insert protocol exists" assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ids import ObjectId, SiteId
from ..net.message import Payload


@dataclass(frozen=True, slots=True)
class InsertRequest(Payload):
    """Y -> Z: 'I now hold a reference to your object ``target``'.

    ``pin_holder`` is the site X whose outref is pinned awaiting this insert;
    Z releases it with :class:`InsertDone`.  ``None`` means no pin is
    outstanding (e.g. the reference arrived from the owner itself).

    ``release_owner_custody`` marks inserts whose in-flight custody is a pin
    taken *at the owner* (a mutator materialized a variable-held reference at
    a new site -- section 6.3); processing the insert creates the inref that
    roots the object, so the owner releases one custody pin.
    """

    target: ObjectId
    pin_holder: Optional[SiteId] = None
    release_owner_custody: bool = False
    #: Per-(sender, receiver) mutation-protocol sequence number (stamped by
    #: Site.send; -1 = unstamped).  A duplicate delivery of an insert is NOT
    #: idempotent by itself -- it would re-run the transfer barrier and,
    #: worse, release a pin twice -- so receivers suppress replays by seq.
    seq: int = -1

    def with_seq(self, seq: int) -> "InsertRequest":
        """This payload as :meth:`Site.send` stamps it."""
        return InsertRequest(
            self.target, self.pin_holder, self.release_owner_custody, seq
        )


@dataclass(frozen=True, slots=True)
class InsertDone(Payload):
    """Z -> X: the owner has recorded the insert; X may release its pin."""

    target: ObjectId
    seq: int = -1

    def with_seq(self, seq: int) -> "InsertDone":
        return InsertDone(self.target, seq)


@dataclass(frozen=True, slots=True)
class UnpinRequest(Payload):
    """Y -> X: no insert was needed (cases 1-3); X may release its pin."""

    target: ObjectId
    seq: int = -1

    def with_seq(self, seq: int) -> "UnpinRequest":
        return UnpinRequest(self.target, seq)
