"""Continuous distance-threshold refinement for moving-point segments.

This is the paper's ``compare(D[entryID], Q[queryID])`` primitive
(Algorithms 1-3, line "result <- compare(...)").  Each 4-D line segment
describes a point moving at constant velocity during its temporal extent.
For a query segment ``q`` and an entry segment ``l`` the refinement must
return the (possibly empty) time interval during which the two moving
points are within Euclidean distance ``d`` of each other.

Mathematics
-----------
Restrict to the temporal overlap ``[t0, t1]`` of the two segments (empty
overlap => no result).  Within it, both positions are affine in ``t``, so
the displacement vector is affine, ``delta(t) = u + w t``, and the squared
distance is the quadratic

    f(t) = |w|^2 t^2 + 2 (u.w) t + |u|^2.

``f(t) <= d^2`` therefore holds on at most one closed interval, obtained
from the roots of ``f(t) - d^2``.  Intersecting with ``[t0, t1]`` yields
the reported interval.  Degenerate cases:

* ``|w| = 0`` (identical velocities, incl. two stationary points): the
  distance is constant — the answer is all of ``[t0, t1]`` or nothing.
* zero temporal extent (``t_start == t_end``): the segment is a point
  event; the overlap is at most an instant and the closed-interval
  semantics still apply.

Everything is vectorized over an arbitrary batch of (query, entry) pairs;
this one function is the computational kernel that dominates response time
in every engine, exactly as segment comparison dominates in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import SegmentArray

__all__ = ["compare_pairs", "pair_coefficients", "solve_intervals",
           "window_minimum", "PairCoefficients", "PairIntervals"]

# Relative tolerance used when deciding whether the quadratic coefficient
# is numerically zero (parallel motion).  Scaled by the magnitude of the
# velocities involved so the test is unit-free.
_EPS = 1e-30

# Relative rounding slack of the minimum-distance prefilter (see
# :meth:`PairCoefficients.min_sq`): 64 units of double-precision
# roundoff, a wide margin over the few roundings either side makes.
_SLACK = 64.0 * float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class PairIntervals:
    """Result of refining a batch of (query, entry) candidate pairs.

    ``mask`` flags the pairs whose moving points come within ``d`` during
    their temporal overlap; ``t_lo``/``t_hi`` give the closed interval for
    those pairs (undefined where ``mask`` is False).  ``hits`` lists the
    flagged positions in increasing order, so callers need not scan the
    full-width mask.
    """

    mask: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    hits: np.ndarray

    def __len__(self) -> int:
        return int(self.mask.shape[0])

    @property
    def num_hits(self) -> int:
        return int(self.hits.shape[0])


def _interp_endpoints(seg: SegmentArray, idx: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Return (p0, v, ts, te) for segments ``idx``: p(t) = p0 + v*(t-ts)."""
    p0 = np.stack([seg.xs[idx], seg.ys[idx], seg.zs[idx]], axis=1)
    p1 = np.stack([seg.xe[idx], seg.ye[idx], seg.ze[idx]], axis=1)
    ts = seg.ts[idx]
    te = seg.te[idx]
    dt = te - ts
    # Zero-extent segments are stationary points: velocity 0.
    v = np.divide(p1 - p0, dt[:, None],
                  out=np.zeros_like(p0), where=dt[:, None] > 0)
    return p0, v, ts, te


def window_minimum(a: np.ndarray, b: np.ndarray, c0: np.ndarray,
                   t0: np.ndarray, t1: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of ``f(t) = a t^2 + b t + c0`` over each window ``[t0, t1]``.

    Returns ``(t_star, f(t_star))``: the vertex ``-b / 2a`` clamped to the
    window, or ``t0`` where ``a`` is numerically zero (constant
    distance, any point of the window does).
    """
    t_star = np.where(a > _EPS, -b / (2.0 * np.maximum(a, _EPS)), t0)
    t_star = np.clip(t_star, t0, t1)
    return t_star, a * t_star * t_star + b * t_star + c0


@dataclass(frozen=True)
class PairCoefficients:
    """The ``d``-invariant part of refining a batch of candidate pairs.

    For each *alive* pair (non-empty temporal overlap, not excluded) the
    squared distance on the overlap ``[t0, t1]`` is the quadratic
    ``f(t) = a t^2 + b t + c0``; a threshold query only shifts the
    constant term (``f(t) <= d^2  <=>  a t^2 + b t + (c0 - d^2) <= 0``).
    Engines whose candidate schedule does not depend on ``d`` (the
    temporal scheme's signature property) therefore compute these
    coefficients once per query set and re-solve per threshold.

    ``alive_idx`` maps the compacted coefficient rows back to positions
    in the original pair batch (strictly increasing); every other array
    is compacted (one slot per alive pair).
    """

    num_pairs: int
    alive_idx: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray

    def __len__(self) -> int:
        return self.num_pairs

    @property
    def num_alive(self) -> int:
        return int(self.alive_idx.shape[0])

    def nbytes(self) -> int:
        """Host memory held by the cached coefficient arrays."""
        return int(self.alive_idx.nbytes + self.t0.nbytes
                   + self.t1.nbytes + self.a.nbytes + self.b.nbytes
                   + self.c0.nbytes)

    @classmethod
    def concatenate(cls, parts: list["PairCoefficients"],
                    offsets: list[int],
                    num_pairs: int) -> "PairCoefficients":
        """One batch of ``num_pairs`` pairs from consecutive sub-batches,
        part ``i`` starting at pair position ``offsets[i]``.

        Each part's :meth:`min_sq` is carried over (computed here if the
        caller has not already done so while the part was cache-hot).
        """
        if not parts:
            z = np.zeros(0)
            return cls(num_pairs=num_pairs,
                       alive_idx=np.zeros(0, dtype=np.int64),
                       t0=z, t1=z, a=z, b=z, c0=z)
        cat = np.concatenate
        out = cls(num_pairs=num_pairs,
                  alive_idx=cat([o + p.alive_idx
                                 for o, p in zip(offsets, parts)]),
                  t0=cat([p.t0 for p in parts]),
                  t1=cat([p.t1 for p in parts]),
                  a=cat([p.a for p in parts]),
                  b=cat([p.b for p in parts]),
                  c0=cat([p.c0 for p in parts]))
        object.__setattr__(out, "_min_sq", cat([p.min_sq() for p in parts]))
        return out

    def min_sq(self) -> np.ndarray:
        """Lower bound on what :func:`solve_intervals` treats as each
        alive row's minimum squared distance, memoized.

        Soundness (prefilter survivors contain the solver's hits): the
        solver flags a row at ``d`` only if, up to its own rounding,
        some ``t`` in ``[t0, t1]`` has ``f(t) <= d^2``, i.e. the window
        minimum ``m`` is at most ``d^2``.

        * Constant rows (``a <= _EPS``): the solver flags exactly
          ``c0 <= d^2`` (``fl(c0 - d^2) <= 0`` is exact in sign), so the
          bound is ``c0`` itself.
        * Quadratic rows: :func:`window_minimum` evaluates ``f`` at the
          clamped vertex ``t*``.  A point of the window gives ``f >= m``
          exactly, and the computed ``t*`` lies within a relative
          rounding of the true minimiser, so the computed value exceeds
          ``m`` by at most a few roundings of its terms.  The solver's
          decision — the sign of ``b^2 - 4a(c0 - d^2)`` and the
          comparisons of its roots with ``t0``/``t1`` — is likewise
          exact for a perturbed ``f`` whose value moves by at most a few
          roundings of ``c0``, ``|b t*|``, ``a t*^2`` and ``d^2``
          (``c0 >= b^2 / 4a`` up to rounding, as ``f`` is a squared
          norm, so ``c0`` also covers the vertex terms).  Subtracting
          ``_SLACK`` (64 roundings) times ``c0 + |b t*| + a t*^2`` and
          comparing against ``d^2 (1 + _SLACK)`` therefore never drops a
          row the solver flags.

        The slack scales with the terms, not with ``d^2``: time is
        absolute, so ``c0`` and ``b t*`` can dwarf ``d^2``.
        """
        cached = getattr(self, "_min_sq", None)
        if cached is None:
            t_star, f = window_minimum(self.a, self.b, self.c0, self.t0,
                                       self.t1)
            scale = self.c0 + np.abs(self.b * t_star) \
                + self.a * t_star * t_star
            cached = np.where(self.a <= _EPS, self.c0,
                              f - _SLACK * scale)
            object.__setattr__(self, "_min_sq", cached)
        return cached

    def _min_sq_at(self) -> np.ndarray:
        """:meth:`min_sq` indexed by pair position, memoized.  Pairs
        culled at build time hold NaN, which survives no threshold."""
        cached = getattr(self, "_min_sq_pos", None)
        if cached is None:
            cached = np.full(self.num_pairs, np.nan)
            cached[self.alive_idx] = self.min_sq()
            object.__setattr__(self, "_min_sq_pos", cached)
        return cached

    def take(self, positions: np.ndarray, d: float) -> "PairCoefficients":
        """The rows of ``positions`` (pair positions into this batch, in
        any order) that can hit at threshold ``d``, as a standalone batch
        of ``len(positions)`` pairs.

        Only prefilter survivors are gathered; solving the result at any
        ``d' <= d`` gives bit-for-bit the answer of solving the full
        selection, because the root solve is elementwise.  This is how a
        cached superset serves each threshold's pair set.
        """
        bound = self._min_sq_at()[positions]
        keep = np.flatnonzero(bound <= _threshold(d))
        src = np.searchsorted(self.alive_idx, positions[keep])
        out = PairCoefficients(
            num_pairs=int(positions.shape[0]), alive_idx=keep,
            t0=self.t0[src], t1=self.t1[src], a=self.a[src],
            b=self.b[src], c0=self.c0[src])
        object.__setattr__(out, "_min_sq", bound[keep])
        return out


def _threshold(d: float) -> float:
    """Survivor threshold on :meth:`PairCoefficients.min_sq` at ``d``."""
    return d * d * (1.0 + _SLACK)


def pair_coefficients(
    queries: SegmentArray,
    entries: SegmentArray,
    q_idx: np.ndarray,
    e_idx: np.ndarray,
    *,
    exclude_same_trajectory: bool = False,
) -> PairCoefficients:
    """Compute the ``d``-invariant quadratic coefficients of a pair batch.

    The whole batch is processed in a handful of 1-D vectorized passes
    over the structure-of-arrays segment store: temporal-overlap
    clipping, compaction to the alive pairs, then the component-wise
    quadratic coefficients.  No ``(n, 3)`` temporaries are built.
    """
    q_idx = np.asarray(q_idx, dtype=np.int64)
    e_idx = np.asarray(e_idx, dtype=np.int64)
    if q_idx.shape != e_idx.shape or q_idx.ndim != 1:
        raise ValueError("q_idx and e_idx must be equal-length 1-D arrays")
    n = q_idx.shape[0]

    # Temporal overlap [t0, t1]; closed-interval semantics (touching
    # counts).  Computed full-width: it is what decides aliveness.
    qts = queries.ts[q_idx]
    ets = entries.ts[e_idx]
    t0 = np.maximum(qts, ets)
    t1 = np.minimum(queries.te[q_idx], entries.te[e_idx])
    alive = t0 <= t1
    if exclude_same_trajectory:
        alive &= queries.traj_ids[q_idx] != entries.traj_ids[e_idx]

    # Everything below runs compacted: dead pairs (the overwhelming
    # majority for spatially selective indexes) never touch the FPU.
    live = np.flatnonzero(alive)
    qi = q_idx[live]
    ei = e_idx[live]
    qts = qts[live]
    ets = ets[live]

    qvx, qvy, qvz = queries.velocities()
    evx, evy, evz = entries.velocities()

    # delta(t) = u + w t  with positions expressed as p0 + v*(t - ts).
    # Component-wise, accumulated in (x + z) + y order — the exact
    # floating-point association the previous einsum("ij,ij->i") kernel
    # produced, so results are bit-identical to the historical path.
    qvx = qvx[qi]; qvy = qvy[qi]; qvz = qvz[qi]  # noqa: E702
    evx = evx[ei]; evy = evy[ei]; evz = evz[ei]  # noqa: E702
    wx = evx - qvx
    wy = evy - qvy
    wz = evz - qvz
    ux = (entries.xs[ei] - queries.xs[qi]) - evx * ets + qvx * qts
    uy = (entries.ys[ei] - queries.ys[qi]) - evy * ets + qvy * qts
    uz = (entries.zs[ei] - queries.zs[qi]) - evz * ets + qvz * qts

    a = (wx * wx + wz * wz) + wy * wy
    b = 2.0 * ((ux * wx + uz * wz) + uy * wy)
    c0 = (ux * ux + uz * uz) + uy * uy

    return PairCoefficients(num_pairs=n, alive_idx=live,
                            t0=t0[live], t1=t1[live], a=a, b=b, c0=c0)


def solve_intervals(coef: PairCoefficients, d: float) -> PairIntervals:
    """Solve a coefficient batch at threshold ``d``.

    The ``d``-dependent half of :func:`compare_pairs`: roots of
    ``a t^2 + b t + (c0 - d^2)``, intersected with the temporal overlap.
    Only rows whose :meth:`PairCoefficients.min_sq` bound survives at
    ``d`` reach the root solve; the rest cannot hit (see the soundness
    argument there), and the solve is elementwise, so the result is
    bit-identical to solving every alive row.
    """
    if d < 0:
        raise ValueError("query distance d must be non-negative")
    n = coef.num_pairs
    t_lo = np.empty(n)
    t_hi = np.empty(n)
    mask = np.zeros(n, dtype=bool)
    d2 = d * d
    rows = np.flatnonzero(coef.min_sq() <= _threshold(d))
    a = coef.a[rows]

    # Case 1: constant relative distance (a == 0 numerically): the
    # whole overlap or nothing.
    hit = coef.c0[rows] - d2 <= 0.0
    lo = coef.t0[rows]
    hi = coef.t1[rows]

    # Case 2: genuine quadratic.  f <= 0 between the roots.
    quad = np.flatnonzero(a > _EPS)
    aq = a[quad]
    bq = coef.b[rows[quad]]
    cq = coef.c0[rows[quad]] - d2
    disc = bq * bq - 4.0 * aq * cq
    sq = np.sqrt(np.maximum(disc, 0.0))
    twoa = 2.0 * aq
    lo[quad] = np.maximum((-bq - sq) / twoa, lo[quad])
    hi[quad] = np.minimum((-bq + sq) / twoa, hi[quad])
    hit[quad] = (disc >= 0.0) & (lo[quad] <= hi[quad])

    hits = coef.alive_idx[rows[hit]]
    t_lo[hits] = lo[hit]
    t_hi[hits] = hi[hit]
    mask[hits] = True
    return PairIntervals(mask, t_lo, t_hi, hits)


def compare_pairs(
    queries: SegmentArray,
    entries: SegmentArray,
    q_idx: np.ndarray,
    e_idx: np.ndarray,
    d: float,
    *,
    exclude_same_trajectory: bool = False,
) -> PairIntervals:
    """Refine candidate pairs ``(q_idx[i], e_idx[i])`` at threshold ``d``.

    Parameters
    ----------
    queries, entries:
        The query set ``Q`` and database ``D``.
    q_idx, e_idx:
        Equal-length integer arrays of row indices into ``queries`` and
        ``entries`` — the candidate pairs produced by an index.
    d:
        The query distance threshold (``d >= 0``).
    exclude_same_trajectory:
        When the query set is drawn from the database itself (the paper's
        astrophysics scenario ii), comparisons of a trajectory against its
        own segments are meaningless; this drops pairs whose trajectory ids
        match.

    Returns
    -------
    PairIntervals with one slot per input pair.
    """
    if d < 0:
        raise ValueError("query distance d must be non-negative")
    coef = pair_coefficients(
        queries, entries, q_idx, e_idx,
        exclude_same_trajectory=exclude_same_trajectory)
    return solve_intervals(coef, d)


def distance_at(
    queries: SegmentArray,
    entries: SegmentArray,
    qi: int,
    ei: int,
    t: np.ndarray,
) -> np.ndarray:
    """Exact distance between moving points of pair ``(qi, ei)`` at times
    ``t`` — a slow, obviously-correct helper used by the test suite to
    cross-check :func:`compare_pairs` by dense sampling."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    qp0, qv, qts, _ = _interp_endpoints(queries, np.array([qi]))
    ep0, ev, ets, _ = _interp_endpoints(entries, np.array([ei]))
    for k, tk in enumerate(t):
        pq = qp0[0] + qv[0] * (tk - qts[0])
        pe = ep0[0] + ev[0] * (tk - ets[0])
        out[k] = float(np.linalg.norm(pq - pe))
    return out
