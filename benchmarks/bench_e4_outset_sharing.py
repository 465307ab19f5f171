"""E4 -- Canonical outsets and memoized unions (paper section 5.2).

Claims:

- suspects with equal outsets share one stored copy, and on well-clustered
  heaps there are far fewer distinct outsets than suspected objects (chains
  and strongly connected components share);
- memoized unions make repeated unions O(1), so total union work stays
  near-linear;
- retained inset/outset storage is bounded by O(n_i * n_o) and is usually
  far below it.
"""

import random

import pytest

from repro.core.backinfo import TraceEnvironment, compute_outsets_bottom_up
from repro.core.backinfo.outsets import OutsetStore
from repro.harness.report import Table
from repro.ids import ObjectId
from repro.store.heap import Heap


def build_clustered_heap(n_chains, chain_length, n_outrefs, seed=0):
    """Clustered heap: chains of local objects, few distinct remote refs."""
    rng = random.Random(seed)
    heap = Heap("Q")
    remotes = [ObjectId("P", i) for i in range(n_outrefs)]
    roots = []
    for _ in range(n_chains):
        chain = [heap.alloc() for _ in range(chain_length)]
        for left, right in zip(chain, chain[1:]):
            left.add_ref(right.oid)
        # The chain tail points at 1-2 remote refs.
        chain[-1].add_ref(rng.choice(remotes))
        if rng.random() < 0.5:
            chain[-1].add_ref(rng.choice(remotes))
        # Some chains merge into others (sharing).
        if roots and rng.random() < 0.6:
            heap.get(rng.choice(roots)).add_ref(chain[0].oid)
        roots.append(chain[0].oid)
    return heap, roots


def env_for(heap):
    return TraceEnvironment(
        heap=heap, marks=heap.fresh_marks(), is_clean_outref=lambda ref: False
    )


def test_e4_sharing_series(benchmark, record_table):
    def run():
        rows = []
        for n_chains in (10, 25, 50, 100):
            heap, roots = build_clustered_heap(
                n_chains=n_chains, chain_length=20, n_outrefs=8
            )
            result = compute_outsets_bottom_up(env_for(heap), roots)
            suspects = result.objects_scanned
            worst_case_space = len(roots) * 8  # n_i * n_o
            actual_space = sum(len(outset) for outset in result.outsets.values())
            rows.append(
                (
                    n_chains,
                    suspects,
                    result.distinct_outsets,
                    result.unions_computed,
                    result.union_memo_hits,
                    actual_space,
                    worst_case_space,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        "E4: outset sharing on clustered heaps",
        [
            "suspected inrefs",
            "objects scanned",
            "distinct outsets",
            "unions computed",
            "memo hits",
            "inset storage",
            "n_i*n_o bound",
        ],
    )
    for row in rows:
        table.add_row(*row)
        # Far fewer distinct outsets than suspected objects.
        assert row[2] < row[1] / 4
        # Union work stays near-linear: computed unions bounded by scans.
        assert row[3] <= row[1] * 2
        # Storage within the paper's bound.
        assert row[5] <= row[6]
    record_table("e4_sharing", table)


def test_e4_memoization_speedup(benchmark, record_table):
    """Re-uniting the same pair costs O(1): measure hit ratio on a diamond
    lattice where every join re-unites previously united outsets."""

    def run():
        heap = Heap("Q")
        width, depth = 12, 12
        layers = [[heap.alloc() for _ in range(width)] for _ in range(depth)]
        for upper, lower in zip(layers, layers[1:]):
            for index, obj in enumerate(upper):
                obj.add_ref(lower[index].oid)
                obj.add_ref(lower[(index + 1) % width].oid)
        for index, obj in enumerate(layers[-1]):
            obj.add_ref(ObjectId("P", index % 4))
        roots = [obj.oid for obj in layers[0]]
        return compute_outsets_bottom_up(env_for(heap), roots)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    total = result.unions_computed + result.union_memo_hits
    table = Table(
        "E4 memoization: union operations on a diamond lattice",
        ["objects", "unions total", "computed", "memo hits", "hit ratio"],
    )
    table.add_row(
        result.objects_scanned,
        total,
        result.unions_computed,
        result.union_memo_hits,
        result.union_memo_hits / max(1, total),
    )
    record_table("e4_memoization", table)


@pytest.mark.parametrize("n_chains", [25, 100])
def test_e4_wall_time(benchmark, n_chains):
    heap, roots = build_clustered_heap(n_chains=n_chains, chain_length=20, n_outrefs=8)
    result = benchmark(lambda: compute_outsets_bottom_up(env_for(heap), roots))
    assert result.outsets


def test_e4_store_reuse_unit_costs(benchmark):
    """Micro-benchmark: memoized union lookups."""
    store = OutsetStore()
    ids = [
        store.intern(frozenset({ObjectId("P", i), ObjectId("P", i + 1)}))
        for i in range(50)
    ]
    # Prime the memo.
    for left in ids:
        for right in ids:
            store.union(left, right)

    def rerun():
        for left in ids:
            for right in ids:
                store.union(left, right)

    benchmark(rerun)
    assert store.union_memo_hits > store.unions_computed
