"""Direct construction of distributed object graphs.

The builder creates objects and reference edges *before* a simulation run,
keeping the inref/outref tables consistent with the heaps (every inter-site
edge yields an outref at the holder and a source entry in the owner's inref).
New inref sources start at the conservative distance 1, exactly as if the
reference had just been inserted; experiments then run warm-up GC rounds to
let the distance heuristic converge to true distances before the interesting
mutation happens.

Objects can be given string labels so scenario code reads like the paper's
figures: ``b["a"]``, ``b.link("a", "b")``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..errors import SimulationError
from ..ids import ObjectId, SiteId
from ..sim.simulation import Simulation

Handle = Union[str, ObjectId]


class GraphBuilder:
    """Builds labelled objects and reference edges across sites."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._labels: Dict[str, ObjectId] = {}

    def __getitem__(self, label: str) -> ObjectId:
        try:
            return self._labels[label]
        except KeyError:
            raise SimulationError(f"no object labelled {label!r}") from None

    def resolve(self, handle: Handle) -> ObjectId:
        if isinstance(handle, ObjectId):
            return handle
        return self[handle]

    @property
    def labels(self) -> Dict[str, ObjectId]:
        return dict(self._labels)

    # -- creation ---------------------------------------------------------------

    def obj(
        self, site_id: SiteId, label: Optional[str] = None, root: bool = False
    ) -> ObjectId:
        """Create one object at ``site_id``; optionally a persistent root."""
        oid = self.sim.site(site_id).heap.alloc_id(root)
        if label is not None:
            if label in self._labels:
                raise SimulationError(f"label {label!r} already used")
            self._labels[label] = oid
        return oid

    def objs(self, site_id: SiteId, count: int, prefix: Optional[str] = None) -> List[ObjectId]:
        return [
            self.obj(site_id, label=f"{prefix}{i}" if prefix else None)
            for i in range(count)
        ]

    # -- edges --------------------------------------------------------------------

    def link(self, src: Handle, dst: Handle) -> None:
        """Add a reference from object ``src`` to object ``dst``.

        Cross-site links create/extend the matching outref and inref entries
        with the conservative new-source distance of 1.  Ids are used as
        handed; only labels are looked up.
        """
        if src.__class__ is not ObjectId:
            src = self[src]
        if dst.__class__ is not ObjectId:
            dst = self[dst]
        src_site = self.sim.site(src.site)
        src_site.heap.add_ref(src, dst)
        if dst.site != src.site:
            src_site.outrefs.ensure(dst, True, 1)
            self.sim.site(dst.site).inrefs.ensure(dst, src.site, 1)

    def link_chain(self, handles: Iterable[Handle]) -> None:
        """Link consecutive handles: a -> b -> c -> ..."""
        previous: Optional[Handle] = None
        for handle in handles:
            if previous is not None:
                self.link(previous, handle)
            previous = handle

    def link_cycle(self, handles: Iterable[Handle]) -> None:
        """Link consecutive handles and close the loop back to the first."""
        items = list(handles)
        if not items:
            return
        self.link_chain(items)
        if len(items) > 1:
            self.link(items[-1], items[0])
        else:
            self.link(items[0], items[0])
