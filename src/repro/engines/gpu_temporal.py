"""GPUTemporal — temporal indexing search engine (paper §IV-B, Alg. 2).

Workflow per search:

1. Host sorts ``Q`` by non-decreasing ``t_start`` (``O(|Q| log |Q|)``).
2. Host computes the *schedule* ``S``: for each query, the contiguous
   candidate row range ``E_k`` from the temporal-bin index (near-constant
   time per query thanks to the sorted order; §IV-B.2 notes computing this
   on the GPU yielded no gain).
3. ``Q`` and ``S`` are shipped to the device; the kernel assigns one query
   per thread, which refines every candidate in ``D[E_k]`` and atomically
   appends results.
4. If the device result buffer fills, unpublished queries are re-processed
   by another invocation after the host drains the buffer — the paper's
   incremental processing of large query sets.

The candidate count of a query does not depend on ``d`` — the scheme's
signature behaviour: response time is flat in the query distance, except
for the result-volume effects (more atomic appends, more d2h traffic, more
invocations) at large ``d``.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.ranges import expand_ranges
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.kernel import KernelLauncher, LaunchSpec
from ..gpu.profiler import SearchProfile
from ..indexes.temporal import TemporalIndex
from .base import (GpuEngineBase, KernelInvocationLimitError,
                   MAX_KERNEL_INVOCATIONS, RangeBatch, RefineCache,
                   ResultBufferOverflowError, first_fit_accept,
                   index_build_phase, refine_ranges)
from .config import GpuTemporalConfig

__all__ = ["GpuTemporalEngine"]


class GpuTemporalEngine(GpuEngineBase):
    """The GPUTemporal search engine."""

    name = "gpu_temporal"
    config_type = GpuTemporalConfig
    _identity_caches = GpuEngineBase._identity_caches + ("_batch_cache",)

    def __init__(self, database: SegmentArray, *, num_bins: int = 1000,
                 gpu=None, result_buffer_items: int = 2_000_000,
                 retry=None) -> None:
        super().__init__(database, gpu=gpu,
                         result_buffer_items=result_buffer_items,
                         retry=retry)
        # Offline: build the index and place D (sorted) + bins on device.
        with index_build_phase(self.name):
            self.index = TemporalIndex.build(database, num_bins)
            self.database = self.index.segments
            self._place_database(self.database, "temporal_db")
            self.gpu.memory.put("temporal_bins", np.stack(
                [self.index.bin_start, self.index.bin_end,
                 self.index.bin_first.astype(np.float64),
                 self.index.bin_last.astype(np.float64)]))
        # The schedule is d-invariant (§IV-B), so across a d-sweep over
        # one query set the invocation-0 batch and its refinement
        # coefficients are reusable verbatim.
        self._refine_cache = RefineCache()
        self._batch_cache: tuple | None = None

    # -- schedule -------------------------------------------------------------

    def _make_schedule(self, q_sorted: SegmentArray
                       ) -> tuple[np.ndarray, np.ndarray]:
        return self.index.candidate_rows(q_sorted.ts, q_sorted.te)

    # -- search ---------------------------------------------------------------

    def _search_once(self, queries: SegmentArray, d: float, *,
                     exclude_same_trajectory: bool = False
                     ) -> tuple[ResultSet, SearchProfile]:
        wall0 = time.perf_counter()
        self.gpu.reset_counters()
        launcher = KernelLauncher(self.gpu)

        q_sorted = self._sorted_queries(queries)
        row_lo, row_hi = self._make_schedule(q_sorted)
        self._upload_queries(q_sorted)
        self.gpu.transfers.h2d("schedule", len(q_sorted) * 16)

        live = np.arange(len(q_sorted), dtype=np.int64)
        parts: list[ResultSet] = []
        redo_total = 0
        raw_items = 0
        coef_full = None
        full_cand_start = None

        for invocation in range(MAX_KERNEL_INVOCATIONS):
            if live.size == 0:
                break
            inputs: tuple[tuple[str, int], ...] = ()
            if invocation > 0:
                inputs = (("redo_query_ids", live.size * 8),)

            # Invocation 0 covers the full (d-invariant) schedule, so
            # both its batch and its coefficients are cacheable across
            # a d-sweep; redo invocations handle a subset of those
            # same pairs, gathered from the cached coefficients.
            coef = None
            if invocation == 0:
                cached = self._batch_cache
                if cached is not None and cached[0] is q_sorted:
                    lens, batch = cached[1], cached[2]
                else:
                    lens = np.maximum(row_hi - row_lo + 1, 0)
                    cand_start = np.zeros(live.size + 1, dtype=np.int64)
                    np.cumsum(lens, out=cand_start[1:])
                    batch = RangeBatch(
                        q_rows=live,
                        candidate_rows=_expand_ranges(row_lo, lens),
                        cand_start=cand_start)
                    self._batch_cache = (q_sorted, lens, batch)
                coef = coef_full = self._refine_cache.coefficients_for(
                    q_sorted, self.database, batch,
                    exclude_same_trajectory=exclude_same_trajectory)
                full_cand_start = batch.cand_start
            else:
                lens = np.maximum(row_hi[live] - row_lo[live] + 1, 0)
                cand_start = np.zeros(live.size + 1, dtype=np.int64)
                np.cumsum(lens, out=cand_start[1:])
                batch = RangeBatch(q_rows=live,
                                   candidate_rows=_expand_ranges(
                                       row_lo[live], lens),
                                   cand_start=cand_start)
                if coef_full is not None:
                    coef = coef_full.take(expand_ranges(
                        full_cand_start[live], lens), d)

            def kernel(k, lens=lens, batch=batch, coef=coef):
                hits, pq, pe, plo, phi = refine_ranges(
                    q_sorted, self.database, batch, d,
                    exclude_same_trajectory=exclude_same_trajectory,
                    coefficients=coef)
                k.thread_work[:] = lens
                # Every produced result attempts one atomic append.
                k.add_atomics(int(hits.sum()))

                accept = first_fit_accept(hits,
                                          self.result_buffer.free_items)
                pair_accept = np.repeat(accept, hits)
                ok = self.result_buffer.try_append(
                    pq[pair_accept], pe[pair_accept],
                    plo[pair_accept], phi[pair_accept])
                if not ok:  # pragma: no cover - first_fit sizes the batch
                    raise RuntimeError("internal: accepted batch overflow")
                return hits, accept

            out = launcher.run(
                LaunchSpec(name=self.name, num_threads=live.size,
                           inputs=inputs), kernel)
            hits, accept = out.value

            qd, ed, lod, hid = self.result_buffer.drain()
            self.gpu.transfers.d2h("result_set", qd.size * 32)
            raw_items += qd.size
            parts.append(ResultSet(q_sorted.seg_ids[qd],
                                   self.database.seg_ids[ed], lod, hid))

            rejected = ~accept
            live = live[rejected]
            redo_total += int(live.size)
            if live.size:
                self.gpu.transfers.d2h("redo_list", live.size * 8)
                worst = int(hits[rejected].max())
                if worst > self.result_buffer.capacity_items:
                    raise ResultBufferOverflowError(
                        "result buffer too small for a single query "
                        f"({worst} items > "
                        f"{self.result_buffer.capacity_items} capacity); "
                        "increase result_buffer_items or let the retry "
                        "policy grow it", required_items=worst)
                if invocation == MAX_KERNEL_INVOCATIONS - 1:
                    raise KernelInvocationLimitError(
                        "kernel re-invocation limit reached; increase the "
                        "result buffer capacity",
                        required_items=self.result_buffer.capacity_items
                        * 2)

        raw = ResultSet.from_parts(parts)
        final = raw.deduplicated()
        profile = SearchProfile.capture(
            self.name, self.gpu, num_queries=len(queries),
            schedule_items=len(queries),
            redo_queries=redo_total,
            raw_result_items=raw_items,
            result_items=len(final),
            index_bytes=self.index.nbytes(),
            wall_seconds=time.perf_counter() - wall0,
        )
        return final, profile


# Retained alias: sibling engines import the helper from here.
_expand_ranges = expand_ranges
