"""The paper's motivating workload: hypertext documents.

"Hypertext documents often form large, complex cycles" (section 1).  This
generator models a web of documents spread across sites: each document is a
small local tree of page objects (title page plus sections), and documents
link to each other's title pages following a random citation pattern with a
configurable back-link probability -- back-links are what close inter-site
cycles (think "see also" / parent-child document relations).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from ..ids import ObjectId, SiteId
from ..sim.simulation import Simulation
from .topology import GraphBuilder


@dataclass
class Document:
    """One hypertext document: a title page and its section objects."""

    title_page: ObjectId
    sections: List[ObjectId] = field(default_factory=list)

    @property
    def site(self) -> SiteId:
        return self.title_page.site

    @property
    def objects(self) -> List[ObjectId]:
        return [self.title_page, *self.sections]


@dataclass
class HypertextWeb:
    """A web of cross-linked documents, partly reachable from a catalog."""

    catalog: ObjectId
    documents: List[Document] = field(default_factory=list)
    links: List[Tuple[ObjectId, ObjectId]] = field(default_factory=list)
    catalog_entries: List[int] = field(default_factory=list)

    def unlink_from_catalog(self, sim: Simulation, index: int) -> None:
        """Drop a document from the catalog (it may become garbage)."""
        if index not in self.catalog_entries:
            return
        site = sim.site(self.catalog.site)
        site.mutator_remove_ref(self.catalog, self.documents[index].title_page)
        self.catalog_entries.remove(index)


def build_hypertext_web(
    sim: Simulation,
    sites: Sequence[SiteId],
    documents_per_site: int = 3,
    sections_per_document: int = 3,
    citations_per_document: int = 2,
    back_link_probability: float = 0.5,
    catalog_fraction: float = 0.6,
    seed: int = 0,
) -> HypertextWeb:
    """Build a cross-site document web with cyclic citation structure.

    A *catalog* object (persistent root at the first site) lists a fraction
    of the documents; the rest are reachable only through citations.
    Cutting catalog entries strands citation cycles -- exactly the
    long-lived-system leak the paper motivates back tracing with.
    """
    rng = random.Random(seed)
    builder = GraphBuilder(sim)
    web = HypertextWeb(catalog=builder.obj(sites[0], root=True))

    for site_id in sites:
        for _ in range(documents_per_site):
            title = builder.obj(site_id)
            doc = Document(title_page=title)
            for _ in range(sections_per_document):
                section = builder.obj(site_id)
                builder.link(title, section)
                # Sections point back at their title page: local cycles.
                builder.link(section, title)
                doc.sections.append(section)
            web.documents.append(doc)

    count = len(web.documents)
    for index, doc in enumerate(web.documents):
        for _ in range(citations_per_document):
            other_index = rng.randrange(count)
            if other_index == index:
                continue
            other = web.documents[other_index]
            source_page = rng.choice(doc.objects)
            builder.link(source_page, other.title_page)
            web.links.append((source_page, other.title_page))
            if rng.random() < back_link_probability:
                back_source = rng.choice(other.objects)
                builder.link(back_source, doc.title_page)
                web.links.append((back_source, doc.title_page))

    for index in range(count):
        if rng.random() < catalog_fraction:
            builder.link(web.catalog, web.documents[index].title_page)
            web.catalog_entries.append(index)
    return web
