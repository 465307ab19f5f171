"""Identifier types used throughout the library.

The paper's object model names objects by site plus a per-site serial number.
References *are* object ids: a reference held at site P pointing to an object
owned by site R is simply R's object id stored inside one of P's objects.

All id types are small immutable values that hash and sort deterministically,
which keeps the discrete-event simulation replayable.  They are named tuples:
every dict/set probe and every ``sorted()`` on an id runs the C tuple
``hash``/``==``/``<`` instead of generated Python methods, which is what the
collector's tables spend most of their time on.  The price is that ids of
*different* types with equal fields compare (and hash) equal --
``TraceId("P", 0) == FrameId("P", 0) == ("P", 0)`` -- so no container may mix
id types (none does; ``tests/unit/test_ids_config.py`` audits it).
"""

from __future__ import annotations

from typing import NamedTuple, Union

# Sites are identified by short strings ("P", "Q", ...) in examples and by
# generated names ("s00", "s01", ...) in workloads.  Using strings keeps
# traces and test failures readable, matching the paper's figures.
SiteId = str


class ObjectId(NamedTuple):
    """Globally unique name of an object: owning site + per-site serial.

    An :class:`ObjectId` doubles as a *reference*.  ``ObjectId.site`` tells
    whether a reference is local or remote relative to a holder.
    """

    site: SiteId
    serial: int

    def is_local_to(self, site: SiteId) -> bool:
        """Return True if this object lives at ``site``."""
        return self.site == site

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.site}.{self.serial}"


class TraceId(NamedTuple):
    """Unique id of one distributed back trace.

    The initiating site assigns the id (site + a local sequence number), as
    described in section 4.7 of the paper; uniqueness follows from the site id
    being unique and the sequence number being locally monotonic.
    """

    initiator: SiteId
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"bt:{self.initiator}:{self.seq}"


class FrameId(NamedTuple):
    """Identifies one activation frame of a back trace at one site."""

    site: SiteId
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"fr:{self.site}:{self.seq}"


Ref = ObjectId
"""Alias used where code reads better as 'reference' than 'object id'."""


def parse_object_id(text: str) -> ObjectId:
    """Parse the ``site.serial`` form produced by ``str(ObjectId)``.

    >>> parse_object_id("P.3")
    ObjectId(site='P', serial=3)
    """
    site, _, serial = text.rpartition(".")
    if not site:
        raise ValueError(f"not an object id: {text!r}")
    return ObjectId(site=site, serial=int(serial))


IdLike = Union[ObjectId, str]


def coerce_object_id(value: IdLike) -> ObjectId:
    """Accept either an :class:`ObjectId` or its string form."""
    if isinstance(value, ObjectId):
        return value
    return parse_object_id(value)
