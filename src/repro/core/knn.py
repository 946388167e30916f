"""k-nearest-neighbour trajectory search on the paper's indexes.

The paper's stated future direction (§VI) is "to apply our indexing
techniques to other spatial/spatiotemporal trajectory searches"; the kNN
search is the one it name-checks throughout §II.  This module implements
a *continuous* kNN: for each query segment, the ``k`` entry segments with
the smallest minimum distance over the pair's temporal overlap.

Why this composes cleanly with distance-threshold machinery: §II notes
that index-tree pruning is impossible for threshold searches "because k
is unknown"; the converse construction works, though — a kNN search *is*
a distance-threshold search with an initially unknown ``d``, solved by
iterative deepening:

1. guess a radius from the database's spatiotemporal density;
2. run the (cheap, index-accelerated) threshold search;
3. queries with >= k neighbours take the k smallest exact minimum
   distances; the rest re-run with a doubled radius.

The exact per-pair minimum distance comes from the same quadratic as the
interval solver: ``f(t) = |w|^2 t^2 + 2 u.w t + |u|^2`` minimized over
the closed overlap window by :func:`repro.core.distance.window_minimum`,
the helper behind the solver's minimum-distance prefilter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import pair_coefficients, window_minimum
from .search import DistanceThresholdSearch
from .types import SegmentArray

__all__ = ["pair_min_distance", "knn_brute_force", "TrajectoryKnn",
           "KnnResult"]


def pair_min_distance(
    queries: SegmentArray,
    entries: SegmentArray,
    q_idx: np.ndarray,
    e_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum moving-point distance over each pair's temporal overlap.

    Returns ``(overlap_mask, d_min)``; ``d_min`` is +inf where the pair
    never coexists.
    """
    coef = pair_coefficients(queries, entries, q_idx, e_idx)
    _, f = window_minimum(coef.a, coef.b, coef.c0, coef.t0, coef.t1)
    overlap = np.zeros(coef.num_pairs, dtype=bool)
    overlap[coef.alive_idx] = True
    d_min = np.full(coef.num_pairs, np.inf)
    d_min[coef.alive_idx] = np.sqrt(np.maximum(f, 0.0))
    return overlap, d_min


@dataclass(frozen=True)
class KnnResult:
    """Per-query neighbour lists.

    ``neighbor_ids[i, :counts[i]]`` are the entry *segment ids* of query
    row ``i``'s nearest segments, ascending by ``distances``; padding
    slots hold ``-1`` / ``inf``.  ``counts`` can fall short of ``k`` only
    when fewer than ``k`` entries temporally coexist with the query.
    """

    neighbor_ids: np.ndarray
    distances: np.ndarray
    counts: np.ndarray

    @property
    def k(self) -> int:
        return int(self.neighbor_ids.shape[1])

    def __len__(self) -> int:
        return int(self.neighbor_ids.shape[0])


def _topk_from_pairs(nq: int, k: int, q_rows: np.ndarray,
                     e_ids: np.ndarray, dists: np.ndarray) -> KnnResult:
    """Assemble per-query ascending top-k from a flat candidate list."""
    neighbor_ids = np.full((nq, k), -1, dtype=np.int64)
    distances = np.full((nq, k), np.inf)
    counts = np.zeros(nq, dtype=np.int64)
    if q_rows.size:
        order = np.lexsort((dists, q_rows))
        q_s, e_s, d_s = q_rows[order], e_ids[order], dists[order]
        starts = np.flatnonzero(np.r_[True, q_s[1:] != q_s[:-1]])
        ends = np.r_[starts[1:], q_s.size]
        for s, e in zip(starts, ends):
            q = int(q_s[s])
            take = min(k, e - s)
            neighbor_ids[q, :take] = e_s[s:s + take]
            distances[q, :take] = d_s[s:s + take]
            counts[q] = take
    return KnnResult(neighbor_ids, distances, counts)


def knn_brute_force(queries: SegmentArray, entries: SegmentArray, k: int,
                    *, exclude_same_trajectory: bool = False
                    ) -> KnnResult:
    """Exact kNN by scanning all pairs (the reference implementation)."""
    if k <= 0:
        raise ValueError("k must be positive")
    nq, ne = len(queries), len(entries)
    rows, ids, dd = [], [], []
    for q0 in range(0, nq, max(1, (1 << 20) // max(ne, 1))):
        q1 = min(nq, q0 + max(1, (1 << 20) // max(ne, 1)))
        qs = np.repeat(np.arange(q0, q1, dtype=np.int64), ne)
        es = np.tile(np.arange(ne, dtype=np.int64), q1 - q0)
        mask, dmin = pair_min_distance(queries, entries, qs, es)
        if exclude_same_trajectory:
            mask = mask & (queries.traj_ids[qs] != entries.traj_ids[es])
        rows.append(qs[mask])
        ids.append(entries.seg_ids[es[mask]])
        dd.append(dmin[mask])
    cat = np.concatenate
    return _topk_from_pairs(nq, k, cat(rows) if rows else np.zeros(0, int),
                            cat(ids) if ids else np.zeros(0, int),
                            cat(dd) if dd else np.zeros(0))


class TrajectoryKnn:
    """Index-accelerated continuous kNN via iterative radius deepening.

    Parameters mirror :class:`DistanceThresholdSearch`; any engine works,
    the temporal/spatiotemporal ones being the natural choices.
    """

    #: radius growth factor between deepening rounds.
    GROWTH = 2.0
    #: hard cap on deepening rounds (then the remaining queries simply
    #: have fewer than k temporal coexistents; verified and returned).
    MAX_ROUNDS = 40

    def __init__(self, database: SegmentArray, *,
                 method: str = "gpu_spatiotemporal", **engine_params):
        self.search = DistanceThresholdSearch(database, method=method,
                                              **engine_params)
        self.database = self.search.engine.database

    def initial_radius(self, k: int) -> float:
        """Density-derived starting radius: the radius of a sphere
        expected to hold ~k temporally coexistent segments."""
        db = self.database
        mins, maxs = db.spatial_bounds()
        volume = float(np.prod(np.maximum(maxs - mins, 1e-30)))
        t_lo, t_hi = db.temporal_extent
        mean_extent = float(np.mean(db.te - db.ts))
        coexist = len(db) * mean_extent / max(t_hi - t_lo, 1e-30)
        density = max(coexist, 1.0) / volume
        return float((3.0 * k / (4.0 * np.pi * density)) ** (1.0 / 3.0))

    def query(self, queries: SegmentArray, k: int, *,
              exclude_same_trajectory: bool = False,
              initial_radius: float | None = None) -> KnnResult:
        """Find each query segment's k nearest entry segments."""
        if k <= 0:
            raise ValueError("k must be positive")
        nq = len(queries)
        d = initial_radius if initial_radius is not None \
            else self.initial_radius(k)
        pending = np.arange(nq, dtype=np.int64)
        out_ids = np.full((nq, k), -1, dtype=np.int64)
        out_d = np.full((nq, k), np.inf)
        out_counts = np.zeros(nq, dtype=np.int64)

        erow_of_id = {int(s): r
                      for r, s in enumerate(self.database.seg_ids)}

        for _ in range(self.MAX_ROUNDS):
            if pending.size == 0:
                break
            sub = queries.take(pending)
            outcome = self.search.run(
                sub, d, exclude_same_trajectory=exclude_same_trajectory)
            rs = outcome.results
            # Exact minimum distances for the returned pairs.
            local_of_qid = {int(s): r
                            for r, s in enumerate(sub.seg_ids)}
            q_rows_local = np.array([local_of_qid[int(q)]
                                     for q in rs.q_ids], dtype=np.int64)
            e_rows = np.array([erow_of_id[int(e)] for e in rs.e_ids],
                              dtype=np.int64)
            _, dmin = pair_min_distance(sub, self.database,
                                        q_rows_local, e_rows)
            partial = _topk_from_pairs(
                len(sub), k, q_rows_local,
                self.database.seg_ids[e_rows], dmin)

            # A query is settled when it found >= k neighbours, or when
            # its k-th distance is certain (cannot be undercut beyond d:
            # all found distances <= d by construction, so >= k found
            # means done).
            done_local = partial.counts >= k
            done_global = pending[done_local]
            out_ids[done_global] = partial.neighbor_ids[done_local]
            out_d[done_global] = partial.distances[done_local]
            out_counts[done_global] = partial.counts[done_local]
            pending = pending[~done_local]
            d *= self.GROWTH

        if pending.size:
            # Remaining queries coexist with fewer than k entries (or the
            # round cap hit): finish them exactly by brute force.
            sub = queries.take(pending)
            rest = knn_brute_force(
                sub, self.database, k,
                exclude_same_trajectory=exclude_same_trajectory)
            out_ids[pending] = rest.neighbor_ids
            out_d[pending] = rest.distances
            out_counts[pending] = rest.counts
        return KnnResult(out_ids, out_d, out_counts)
