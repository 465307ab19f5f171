"""E3 -- Cost of computing back information (paper section 5).

Claim: independent tracing from each suspected inref costs
O(n_i * (n + e)) object scans because shared structure is retraced once per
inref, while the bottom-up algorithm (Tarjan + memoized unions) scans every
object exactly once, O(n + e).  Both produce identical outsets.

The bench sweeps three structure shapes -- shared chains (worst case for
retracing), strongly connected components, and random DAGs -- and reports
object-scan counts plus wall time for both algorithms.
"""

import random

import pytest

from repro.core.backinfo import (
    TraceEnvironment,
    compute_outsets_bottom_up,
    compute_outsets_independent,
)
from repro.harness.report import Table
from repro.ids import ObjectId
from repro.store.heap import Heap


def env_for(heap):
    return TraceEnvironment(
        heap=heap, marks=heap.fresh_marks(), is_clean_outref=lambda ref: False
    )


def build_shared_chain(n_heads, chain_length):
    """n_heads suspected inrefs all feeding one long shared chain."""
    heap = Heap("Q")
    chain = [heap.alloc() for _ in range(chain_length)]
    for left, right in zip(chain, chain[1:]):
        left.add_ref(right.oid)
    chain[-1].add_ref(ObjectId("P", 0))
    heads = [heap.alloc() for _ in range(n_heads)]
    for head in heads:
        head.add_ref(chain[0].oid)
    return heap, [head.oid for head in heads]


def build_scc_ring(n_heads, ring_length):
    heap = Heap("Q")
    ring = [heap.alloc() for _ in range(ring_length)]
    for left, right in zip(ring, ring[1:] + ring[:1]):
        left.add_ref(right.oid)
    ring[ring_length // 2].add_ref(ObjectId("P", 0))
    heads = [heap.alloc() for _ in range(n_heads)]
    for index, head in enumerate(heads):
        head.add_ref(ring[index % ring_length].oid)
    return heap, [head.oid for head in heads]


def build_random_dag(n_objects, out_degree, n_roots, seed=0):
    rng = random.Random(seed)
    heap = Heap("Q")
    objects = [heap.alloc() for _ in range(n_objects)]
    for index, obj in enumerate(objects):
        for _ in range(out_degree):
            if index + 1 < n_objects:
                obj.add_ref(objects[rng.randrange(index + 1, n_objects)].oid)
        if rng.random() < 0.1:
            obj.add_ref(ObjectId("P", rng.randrange(5)))
    roots = [obj.oid for obj in rng.sample(objects[: n_objects // 2], n_roots)]
    return heap, roots


SHAPES = {
    "shared-chain": lambda scale: build_shared_chain(n_heads=scale, chain_length=200),
    "scc-ring": lambda scale: build_scc_ring(n_heads=scale, ring_length=200),
    "random-dag": lambda scale: build_random_dag(
        n_objects=400, out_degree=2, n_roots=scale
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("algorithm_name", ["bottomup", "independent"])
def test_backinfo_wall_time(benchmark, shape, algorithm_name):
    heap, roots = SHAPES[shape](scale=20)
    algorithm = (
        compute_outsets_bottom_up
        if algorithm_name == "bottomup"
        else compute_outsets_independent
    )
    result = benchmark(lambda: algorithm(env_for(heap), roots))
    assert result.outsets


def test_e3_scan_count_series(benchmark, record_table):
    def run():
        rows = []
        for shape_name, build in sorted(SHAPES.items()):
            for scale in (5, 10, 20, 40):
                heap, roots = build(scale)
                bottom_up = compute_outsets_bottom_up(env_for(heap), roots)
                independent = compute_outsets_independent(env_for(heap), roots)
                assert bottom_up.outsets == independent.outsets
                rows.append(
                    (
                        shape_name,
                        scale,
                        len(heap),
                        bottom_up.objects_scanned,
                        independent.objects_scanned,
                        independent.objects_scanned
                        / max(1, bottom_up.objects_scanned),
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E3: object scans, bottom-up (single pass) vs independent (retraces)",
        ["shape", "suspected inrefs", "objects", "bottom-up scans", "independent scans", "blow-up"],
    )
    for row in rows:
        table.add_row(*row)
    record_table("e3_scan_counts", table)
    # The headline claim: on shared structure the independent algorithm's
    # scan count grows with n_i while bottom-up's stays flat.
    chain_rows = [row for row in rows if row[0] == "shared-chain"]
    assert chain_rows[-1][3] == chain_rows[0][3] + (40 - 5)  # only heads differ
    assert chain_rows[-1][4] > 4 * chain_rows[0][4] / 2  # grows ~linearly in n_i
