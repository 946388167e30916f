"""Database partitioning for sharded search.

The paper's intended deployment (§III): "D is partitioned across multiple
GPU-equipped compute nodes in a cluster so that aggregate GPU memory is
large", with each node searching its shard in-memory and the results
merged.  Distance-threshold searches make this trivial in principle —
every (query, entry) pair is independent — but the partitioning strategy
still matters for *balance* (shards should hold equal work) and for
per-shard index quality.  Three strategies are provided:

* ``round_robin`` — trajectory k goes to shard k mod N.  Near-perfect
  segment balance for homogeneous trajectories; every shard spans the
  full space and time, so per-shard indexes look like shrunken copies
  of the global one.
* ``temporal`` — contiguous time slices (by segment t_start).  Gives each
  shard a narrow temporal window (great bin selectivity) but queries
  route to few shards, serializing a temporally clustered workload.
* ``spatial`` — slabs along the widest spatial axis (by segment centre).
  Gives spatial locality, but dense regions (the merger core) make shards
  uneven.

The two slab strategies slice by :func:`route_values`, the same rule
:class:`~repro.sharding.ShardMap` later routes appended rows by.

All strategies partition whole *segments*; trajectories may straddle
spatial/temporal shard boundaries, which is fine: the search semantics
are per-segment, and the merged result set is provably identical to the
single-node result because every entry segment lands on exactly one
shard.
"""

from __future__ import annotations

import numpy as np

from ..core.types import SegmentArray

__all__ = ["PARTITION_STRATEGIES", "partition_database",
           "partition_indices", "route_values", "slab_axis"]


def slab_axis(database: SegmentArray) -> int:
    """The widest spatial axis of ``database`` (the ``spatial`` slab
    axis)."""
    mins, maxs = database.spatial_bounds()
    return int(np.argmax(maxs - mins))


def route_values(segments: SegmentArray, strategy: str,
                 axis: int) -> np.ndarray:
    """The scalar each row is sliced by under a slab strategy:
    ``t_start`` for ``temporal``, the segment centre on ``axis`` for
    ``spatial``."""
    if strategy == "temporal":
        return segments.ts
    return 0.5 * (segments.starts[:, axis] + segments.ends[:, axis])


def _round_robin(database: SegmentArray, num_nodes: int) -> list[np.ndarray]:
    # Deal whole trajectories so per-shard indexes keep trajectory
    # contiguity (the R-tree and result semantics prefer it).
    traj_ids = np.unique(database.traj_ids)
    assignment = {int(t): i % num_nodes for i, t in enumerate(traj_ids)}
    node_of_seg = np.array([assignment[int(t)]
                            for t in database.traj_ids])
    return [np.flatnonzero(node_of_seg == n) for n in range(num_nodes)]


def _slabs(strategy: str):
    def split(database: SegmentArray, num_nodes: int) -> list[np.ndarray]:
        values = route_values(database, strategy, slab_axis(database))
        order = np.argsort(values, kind="stable")
        return [np.sort(chunk) for chunk in np.array_split(order, num_nodes)]
    return split


PARTITION_STRATEGIES = {
    "round_robin": _round_robin,
    "temporal": _slabs("temporal"),
    "spatial": _slabs("spatial"),
}


def partition_indices(database: SegmentArray, num_nodes: int,
                      strategy: str = "round_robin"
                      ) -> list[np.ndarray]:
    """Row indices of each shard: ``num_nodes`` disjoint, covering
    index arrays (the raw form of :func:`partition_database`, used by
    the sharded router to keep a row→shard ownership map)."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if strategy not in PARTITION_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; available: "
                         f"{sorted(PARTITION_STRATEGIES)}")
    if len(database) == 0:
        raise ValueError("cannot partition an empty database")
    idx_lists = PARTITION_STRATEGIES[strategy](database, num_nodes)
    total = sum(ix.shape[0] for ix in idx_lists)
    if total != len(database):
        raise AssertionError("partition lost or duplicated segments")
    return idx_lists


def partition_database(database: SegmentArray, num_nodes: int,
                       strategy: str = "round_robin"
                       ) -> list[SegmentArray]:
    """Split ``database`` into ``num_nodes`` disjoint, covering shards."""
    return [database.take(ix) for ix in
            partition_indices(database, num_nodes, strategy)]
