#!/usr/bin/env python3
"""The paper's deployment target: a partitioned object database (Thor-like).

Entity classes shard across sites -- customers, orders, products -- and the
schema's *bidirectional associations* (order -> customer, customer's order
list -> order) form inter-site reference cycles by construction.  Deleting a
customer from its class extent strands its whole cluster as distributed
cyclic garbage.

The run deletes customers one by one and shows, with a protocol event log,
how each deletion plays out: distances climb, one back trace confirms the
cluster, and the next local traces reclaim it -- involving only the customer
and order partitions.

Run:  python examples/object_database.py
"""

from repro import Simulation, SimulationConfig
from repro.analysis import Oracle, TraceLog
from repro.workloads import build_object_database

SITES = ["customers", "orders", "products"]


def main() -> None:
    sim = Simulation.create(SimulationConfig(seed=3))
    sim.add_sites(SITES, auto_gc=False)
    log = TraceLog(sim)
    db = build_object_database(
        sim, "customers", "orders", "products",
        n_customers=4, orders_per_customer=3, n_products=6, seed=3,
    )
    oracle = Oracle(sim)
    print(f"schema: {len(db.customers)} customers x {len(db.orders)} orders "
          f"x {len(db.products)} products over {len(SITES)} partitions")
    print(f"objects total: {sim.total_objects()}, garbage: {len(oracle.garbage_set())}\n")

    for _ in range(2):
        sim.run_gc_round()

    for index in range(len(db.customers)):
        cluster = db.customer_cluster_objects(index)
        db.delete_customer(sim, index)
        print(f"DELETE customer #{index}: {len(cluster)} objects stranded "
              f"(cyclic: {len(oracle.distributed_cyclic_garbage())})")
        for round_number in range(1, 30):
            sim.run_gc_round()
            oracle.check_safety()
            if not any(
                sim.site(oid.site).heap.contains(oid) for oid in cluster
            ):
                print(f"  cluster reclaimed after {round_number} rounds")
                break

    print("\nprotocol event summary:", dict(sorted(log.kinds().items())))
    print("\nback-trace lifecycle events:")
    print(log.render(kinds=["backtrace-start", "backtrace-outcome"]))
    assert not oracle.garbage_set()
    print(f"\nfinal state: {sim.total_objects()} objects, zero garbage, "
          "products partition never participated in a back trace.")


if __name__ == "__main__":
    main()
