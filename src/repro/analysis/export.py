"""Snapshot export of the distributed object graph and ioref tables.

Operators debugging a distributed collector need to *see* the state: which
objects exist where, which references cross sites, what the inref/outref
tables believe, and which iorefs are suspected or flagged.  This module
renders a simulation snapshot as Graphviz DOT (sites as clusters, suspicion
as color) or as a plain JSON-able dict for programmatic diffing.

Export is read-only, safe to call at any simulated time, and engine-blind:
everything here renders :meth:`Simulation.snapshot`, which a sharded run
answers from its workers' live heaps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ..ids import ObjectId
from ..sim.simulation import Simulation


class _Names(dict):
    """``str(oid)`` per id, built once: the slots naming it share the string."""

    def __missing__(self, oid: ObjectId) -> str:
        name = self[oid] = str(oid)
        return name


def site_snapshot(site) -> Dict[str, Any]:
    """A JSON-able dump of one site's heap and ioref tables.

    The one reader of site internals behind every export: the sequential
    :meth:`Simulation.snapshot` calls it per site, and on a sharded run each
    worker calls it for exactly its shard and the coordinator merges, so the
    two engines' snapshots are byte-comparable.
    """
    threshold = site.inrefs.suspicion_threshold
    heap = site.heap
    persistent, variable = heap.persistent_roots, heap.variable_roots
    names = _Names()
    objects = {}
    for oid, refs in heap.resident_slots():
        objects[names[oid]] = {
            "refs": [names[ref] for ref in refs],
            "persistent_root": oid in persistent,
            "variable_root": oid in variable,
        }
    inrefs = {}
    for entry in site.inrefs.entries():
        inrefs[str(entry.target)] = {
            "sources": dict(sorted(entry.sources.items())),
            "distance": entry.distance,
            "clean": entry.is_clean(threshold),
            "garbage": entry.garbage,
            "back_threshold": entry.back_threshold,
        }
    outrefs = {}
    for entry in site.outrefs.entries():
        outrefs[str(entry.target)] = {
            "distance": entry.distance,
            "clean": entry.is_clean,
            "pinned": entry.pin_count > 0,
            "inset": sorted(str(x) for x in entry.inset),
            "back_threshold": entry.back_threshold,
        }
    return {
        "objects": objects,
        "inrefs": inrefs,
        "outrefs": outrefs,
        "crashed": site.crashed,
    }


def graph_snapshot(sim: Simulation) -> Dict[str, Any]:
    """A JSON-able dump of heaps and ioref tables, keyed by site, on either
    engine (:meth:`Simulation.snapshot`)."""
    return sim.snapshot()


def _order(name: str):
    """Sort key of an object name that orders like its :class:`ObjectId`."""
    site, _, serial = name.rpartition(".")
    return site, int(serial)


def graph_diff(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """What changed between two snapshots: per site, objects born and died,
    and iorefs added/removed."""
    result: Dict[str, Any] = {}
    for site_id in sorted(set(before["sites"]) | set(after["sites"])):
        old = before["sites"].get(site_id, {"objects": {}, "inrefs": {}, "outrefs": {}})
        new = after["sites"].get(site_id, {"objects": {}, "inrefs": {}, "outrefs": {}})
        entry = {
            "objects_born": sorted(set(new["objects"]) - set(old["objects"])),
            "objects_died": sorted(set(old["objects"]) - set(new["objects"])),
            "inrefs_added": sorted(set(new["inrefs"]) - set(old["inrefs"])),
            "inrefs_removed": sorted(set(old["inrefs"]) - set(new["inrefs"])),
            "outrefs_added": sorted(set(new["outrefs"]) - set(old["outrefs"])),
            "outrefs_removed": sorted(set(old["outrefs"]) - set(new["outrefs"])),
        }
        if any(entry.values()):
            result[site_id] = entry
    return result


def to_dot(
    sim: Simulation,
    highlight: Optional[Set[ObjectId]] = None,
    include_iorefs: bool = True,
) -> str:
    """Render the distributed heap as Graphviz DOT, from :func:`graph_snapshot`.

    Sites become clusters; persistent roots are doubled octagons; suspected
    inref targets are colored orange, garbage-flagged ones red; ``highlight``
    objects get a bold outline.
    """
    highlight = {str(oid) for oid in highlight or ()}
    sites = graph_snapshot(sim)["sites"]
    lines: List[str] = [
        "digraph repro {",
        "  rankdir=LR;",
        "  node [shape=ellipse, fontsize=10];",
    ]
    for site_id, site in sites.items():
        lines.append(f'  subgraph "cluster_{site_id}" {{')
        label = site_id + (" (CRASHED)" if site["crashed"] else "")
        lines.append(f'    label="{label}";')
        inrefs = site["inrefs"]
        for name, obj in site["objects"].items():
            attrs = []
            if obj["persistent_root"]:
                attrs.append("shape=doubleoctagon")
            entry = inrefs.get(name)
            if entry is not None:
                if entry["garbage"]:
                    attrs.append('color=red, style=filled, fillcolor="#ffcccc"')
                elif not entry["clean"]:
                    attrs.append('color=orange, style=filled, fillcolor="#ffeecc"')
            if name in highlight:
                attrs.append("penwidth=3")
            attr_text = (" [" + ", ".join(attrs) + "]") if attrs else ""
            lines.append(f'    "{name}"{attr_text};')
        lines.append("  }")
    # Edges after all clusters so cross-cluster references render.
    for site_id, site in sites.items():
        for name, obj in site["objects"].items():
            for ref in obj["refs"]:
                local = ref.rpartition(".")[0] == site_id
                style = "" if local else ' [style=bold, color="#3355bb"]'
                lines.append(f'  "{name}" -> "{ref}"{style};')
    if include_iorefs:
        for site in sites.values():
            outrefs = site["outrefs"]
            for target in sorted(outrefs, key=_order):
                entry = outrefs[target]
                if not entry["clean"] and entry["inset"]:
                    for inref in sorted(entry["inset"], key=_order):
                        lines.append(
                            f'  "{inref}" -> "{target}"'
                            ' [style=dashed, color=gray, label="inset"];'
                        )
    lines.append("}")
    return "\n".join(lines)
