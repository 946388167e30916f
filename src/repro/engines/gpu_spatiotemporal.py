"""GPUSpatioTemporal — bins + spatial subbins engine (paper §IV-C, Alg. 3).

Identical host workflow to GPUTemporal (sort ``Q``, compute a schedule,
ship ``Q`` + ``S``), but the schedule points into one of the ``X``/``Y``/
``Z`` subbin id arrays when the query overlaps a single subbin index in
some dimension — giving spatial selectivity for the price of **one extra
indirection** (the kernel reads the entry row id from the subbin array,
then the segment from ``D``).  Queries for which no dimension qualifies
default to the temporal scheme within the same kernel (line 15 of
Algorithm 3); the schedule is pre-sorted by lookup-array selector so warps
see neighbours taking the same branch.

Work accounting: indirect threads charge one *gather* unit per candidate
(the extra id load) on top of the comparison; defaulted threads charge
comparisons only — which is how the cost model exposes the paper's
measured ~12 % indirection overhead (§V-C).
"""

from __future__ import annotations

import time

import numpy as np

from ..core.distance import PairCoefficients
from ..core.ranges import expand_ranges
from ..core.result import ResultSet
from ..core.types import SegmentArray
from ..gpu.kernel import KernelLauncher, LaunchSpec
from ..gpu.profiler import SearchProfile
from ..indexes.spatiotemporal import SpatioTemporalIndex
from .base import (GpuEngineBase, KernelInvocationLimitError,
                   MAX_KERNEL_INVOCATIONS, RangeBatch, RefineCache,
                   ResultBufferOverflowError, first_fit_accept,
                   index_build_phase, refine_ranges)
from .config import GpuSpatioTemporalConfig
from .gpu_temporal import _expand_ranges

__all__ = ["GpuSpatioTemporalEngine"]


class GpuSpatioTemporalEngine(GpuEngineBase):
    """The GPUSpatioTemporal search engine."""

    name = "gpu_spatiotemporal"
    config_type = GpuSpatioTemporalConfig
    _identity_caches = GpuEngineBase._identity_caches + ("_superset",)

    def __init__(self, database: SegmentArray, *, num_bins: int = 1000,
                 num_subbins: int = 4, strict_subbins: bool = True,
                 gpu=None, result_buffer_items: int = 2_000_000,
                 retry=None) -> None:
        super().__init__(database, gpu=gpu,
                         result_buffer_items=result_buffer_items,
                         retry=retry)
        with index_build_phase(self.name):
            self.index = SpatioTemporalIndex.build(
                database, num_bins, num_subbins, strict=strict_subbins)
            self.database = self.index.segments
            self._place_database(self.database, "st_db")
            mem = self.gpu.memory
            for name, arr, offs in zip("XYZ", self.index.dim_arrays,
                                       self.index.dim_offsets):
                mem.put(f"subbin_{name}", arr.astype(np.int32))
                mem.put(f"subbin_{name}_offsets", offs)
            mem.put("st_bins", np.stack(
                [self.index.temporal.bin_start,
                 self.index.temporal.bin_end]))
        # Although the schedule is d-dependent (spatial selectivity),
        # every scheduled pair lies inside the query's d-invariant
        # temporal-bin row range — so the superset's coefficients are
        # cacheable across a d-sweep and per-d batches gather from them.
        self._refine_cache = RefineCache()
        self._superset: tuple | None = None

    # -- coefficient superset --------------------------------------------------

    def _superset_coefficients(
            self, q_sorted: SegmentArray, exclude: bool
    ) -> tuple[PairCoefficients | None, np.ndarray, np.ndarray]:
        """Cached coefficients of the full temporal-range pair superset,
        with each query's first database row and pair-position base."""
        cached = self._superset
        if (cached is not None and cached[0] is q_sorted
                and cached[1] == exclude):
            return cached[2], cached[3], cached[4]
        row_lo, row_hi = self.index.temporal.candidate_rows(
            q_sorted.ts, q_sorted.te)
        lens = np.maximum(row_hi - row_lo + 1, 0)
        cstart = np.zeros(len(q_sorted) + 1, dtype=np.int64)
        np.cumsum(lens, out=cstart[1:])
        batch = RangeBatch(
            q_rows=np.arange(len(q_sorted), dtype=np.int64),
            candidate_rows=expand_ranges(row_lo, lens),
            cand_start=cstart)
        coef = self._refine_cache.coefficients_for(
            q_sorted, self.database, batch,
            exclude_same_trajectory=exclude)
        self._superset = (q_sorted, exclude, coef, row_lo, cstart)
        return coef, row_lo, cstart

    # -- search ----------------------------------------------------------------

    def _search_once(self, queries: SegmentArray, d: float, *,
                     exclude_same_trajectory: bool = False
                     ) -> tuple[ResultSet, SearchProfile]:
        wall0 = time.perf_counter()
        self.gpu.reset_counters()
        launcher = KernelLauncher(self.gpu)

        q_sorted = self._sorted_queries(queries)
        schedule = self.index.make_schedule(q_sorted, d)
        self._upload_queries(q_sorted)
        self.gpu.transfers.h2d("schedule", schedule.nbytes)

        # Thread order = schedule order (sorted by array selector).
        sel_all = schedule.array_sel
        lo_all = schedule.ent_min
        hi_all = schedule.ent_max
        qrow_all = schedule.q_rows

        live = np.arange(len(schedule), dtype=np.int64)  # schedule slots
        parts: list[ResultSet] = []
        redo_total = 0
        raw_items = 0
        coef_full, row_lo_t, cstart_full = self._superset_coefficients(
            q_sorted, exclude_same_trajectory)

        for invocation in range(MAX_KERNEL_INVOCATIONS):
            if live.size == 0:
                break
            inputs: tuple[tuple[str, int], ...] = ()
            if invocation > 0:
                inputs = (("redo_query_ids", live.size * 8),)

            sel = sel_all[live]
            lens = np.maximum(hi_all[live] - lo_all[live] + 1, 0)
            cand_start = np.zeros(live.size + 1, dtype=np.int64)
            np.cumsum(lens, out=cand_start[1:])
            cand_rows = np.empty(int(lens.sum()), dtype=np.int64)
            # Indirect threads: gather entry rows through X/Y/Z; defaulted
            # threads (-1): candidate rows are the range itself.
            for dim in range(3):
                pick = sel == dim
                if not np.any(pick):
                    continue
                idx = _expand_ranges(lo_all[live][pick], lens[pick])
                gathered = self.index.dim_arrays[dim][idx]
                _scatter_ranges(cand_rows, cand_start, np.flatnonzero(pick),
                                gathered, lens)
            pick = sel == -1
            if np.any(pick):
                direct = _expand_ranges(lo_all[live][pick], lens[pick])
                _scatter_ranges(cand_rows, cand_start, np.flatnonzero(pick),
                                direct, lens)

            batch = RangeBatch(q_rows=qrow_all[live],
                               candidate_rows=cand_rows,
                               cand_start=cand_start)
            coef = None
            if coef_full is not None:
                q_rep = np.repeat(qrow_all[live], lens)
                coef = coef_full.take(
                    cstart_full[q_rep] + cand_rows - row_lo_t[q_rep], d)

            def kernel(k, lens=lens, sel=sel, batch=batch, coef=coef):
                hits, pq, pe, plo, phi = refine_ranges(
                    q_sorted, self.database, batch, d,
                    exclude_same_trajectory=exclude_same_trajectory,
                    coefficients=coef)
                k.thread_work[:] = lens
                # The extra indirection of subbin threads.
                k.gather_work[:] = np.where(sel >= 0, lens, 0)
                k.add_atomics(int(hits.sum()))

                accept = first_fit_accept(hits,
                                          self.result_buffer.free_items)
                pair_accept = np.repeat(accept, hits)
                if not self.result_buffer.try_append(
                        pq[pair_accept], pe[pair_accept],
                        plo[pair_accept], phi[pair_accept]):
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
            defaulted_queries=schedule.num_defaulted,
            raw_result_items=raw_items,
            result_items=len(final),
            index_bytes=self.index.nbytes(),
            wall_seconds=time.perf_counter() - wall0,
        )
        return final, profile


def _scatter_ranges(out: np.ndarray, cand_start: np.ndarray,
                    thread_ids: np.ndarray, values: np.ndarray,
                    lens: np.ndarray) -> None:
    """Write each selected thread's candidate list into its slot of the
    flat candidate array."""
    if values.size == 0:
        return
    dest = _expand_ranges(cand_start[thread_ids], lens[thread_ids])
    out[dest] = values
