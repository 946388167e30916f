"""Multi-node search: partition the database across simulated
GPU-equipped nodes (the deployment the paper's §III motivates) and
compare partitioning strategies.

Each node is one shard of a :class:`repro.sharding.ShardedService` with
a single replica: the router broadcasts the query batch, every shard
searches its slice on its own virtual GPU, and the merged answer is
checked against a single-node search.

Run:  python examples/cluster_search.py
"""

import numpy as np

from repro.data import random_dense_dataset, queries_from_database
from repro.service import SearchRequest
from repro.sharding import ShardedService, partition_database


def main():
    db = random_dense_dataset(scale=0.01)
    queries = queries_from_database(db, 6, rng=np.random.default_rng(2))
    d = 0.05
    print(f"|D| = {len(db)}, |Q| = {len(queries)}, d = {d}\n")

    request = SearchRequest(queries=queries, d=d, method="gpu_temporal",
                            params={"num_bins": 200})

    def serve(nodes, strategy="round_robin"):
        with ShardedService(db, num_shards=nodes, replicas_per_shard=1,
                            strategy=strategy) as cluster:
            return cluster.submit(request)

    # Single node reference.
    ref = serve(1)
    t1 = ref.outcome.modeled.total
    print(f"single node: {len(ref.outcome.results)} results, "
          f"modeled {t1:.6f} s\n")

    print(f"{'strategy':>12s} {'nodes':>6s} {'modeled':>12s} "
          f"{'speedup':>8s} {'imbalance':>10s} {'exact':>6s}")
    for strategy in ("round_robin", "temporal", "spatial"):
        for nodes in (2, 4, 8):
            resp = serve(nodes, strategy)
            t = resp.outcome.modeled.total
            # Imbalance: max/mean of the per-shard comparison counts.
            work = np.array([span["comparisons"]
                             for span in resp.metrics.lane_spans],
                            dtype=np.float64)
            ok = resp.outcome.results.equivalent_to(ref.outcome.results)
            print(f"{strategy:>12s} {nodes:6d} {t:10.6f} s "
                  f"{t1 / t:7.2f}x {work.max() / work.mean():9.2f} "
                  f"{'yes' if ok else 'NO'}")

    shards = partition_database(db, 4, "round_robin")
    sizes = [len(s) for s in shards]
    print(f"\nround-robin shard sizes: {sizes} "
          f"(balance = {max(sizes) / (sum(sizes) / len(sizes)):.3f})")
    print("temporal partitioning gives great per-node selectivity but "
          "routes each query to few nodes; round_robin balances best.")


if __name__ == "__main__":
    main()
