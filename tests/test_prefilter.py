"""The interval solver's minimum-distance prefilter at the floating-point
edges.

``solve_intervals`` runs the root solve only on rows whose memoized
``PairCoefficients.min_sq`` bound survives at ``d``.  These tests keep
the previous full-width solve — every alive row, no prefilter — as the
reference, and require the prefiltered answer to equal it bit for bit:
the same mask, and the same ``t_lo``/``t_hi`` bytes at every hit.  They
build coefficients directly and never go through an engine or
``cpu_scan``, which share the prefilter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import (_EPS, PairCoefficients, pair_coefficients,
                                 solve_intervals, window_minimum)
from repro.core.types import SegmentArray, Trajectory
from repro.data.queries import queries_from_database
from repro.data.random_walk import random_dense_dataset
from repro.indexes.temporal import TemporalIndex

FIG6_D = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09)


def reference_solve(coef: PairCoefficients, d: float):
    """The full-width root solve: every alive row, no prefilter."""
    n = coef.num_pairs
    t_lo = np.empty(n)
    t_hi = np.empty(n)
    mask = np.zeros(n, dtype=bool)
    d2 = d * d
    const = coef.a <= _EPS
    quad = ~const

    hit_const = coef.c0[const] - d2 <= 0.0
    idx = coef.alive_idx[const][hit_const]
    t_lo[idx] = coef.t0[const][hit_const]
    t_hi[idx] = coef.t1[const][hit_const]
    mask[idx] = True

    if np.any(quad):
        bq = coef.b[quad]
        aq = coef.a[quad]
        cq = coef.c0[quad] - d2
        disc = bq * bq - 4.0 * aq * cq
        has_roots = disc >= 0.0
        sq = np.sqrt(np.maximum(disc, 0.0))
        r_lo = (-bq - sq) / (2.0 * aq)
        r_hi = (-bq + sq) / (2.0 * aq)
        lo = np.maximum(r_lo, coef.t0[quad])
        hi = np.minimum(r_hi, coef.t1[quad])
        hit = has_roots & (lo <= hi)
        idx = coef.alive_idx[quad][hit]
        t_lo[idx] = lo[hit]
        t_hi[idx] = hi[hit]
        mask[idx] = True
    return mask, t_lo, t_hi


def assert_matches_reference(coef: PairCoefficients, d: float) -> None:
    """Prefiltered solve (directly and through ``take``) == reference."""
    want_mask, want_lo, want_hi = reference_solve(coef, d)
    want = np.flatnonzero(want_mask)
    got = solve_intervals(coef, d)
    assert len(got) == coef.num_pairs
    assert got.mask.tobytes() == want_mask.tobytes()
    assert got.num_hits == want.size
    assert got.hits.tolist() == want.tolist()
    assert got.t_lo[want].tobytes() == want_lo[want].tobytes()
    assert got.t_hi[want].tobytes() == want_hi[want].tobytes()

    # A gather at d, in reverse order, solved at d: the same hits.
    positions = np.arange(coef.num_pairs, dtype=np.int64)[::-1]
    taken = solve_intervals(coef.take(positions, d), d)
    assert len(taken) == coef.num_pairs
    back = positions[taken.hits]
    assert np.sort(back).tolist() == want.tolist()
    order = np.argsort(back)
    assert taken.t_lo[taken.hits][order].tobytes() \
        == want_lo[want].tobytes()
    assert taken.t_hi[taken.hits][order].tobytes() \
        == want_hi[want].tobytes()


def one_pair(q_traj: Trajectory, e_traj: Trajectory) -> PairCoefficients:
    q = SegmentArray.from_trajectories([q_traj])
    e = SegmentArray.from_trajectories([e_traj])
    return pair_coefficients(q, e, np.array([0]), np.array([0]))


def seg(traj_id, t0, t1, p0, p1) -> Trajectory:
    return Trajectory(traj_id, np.array([t0, t1], dtype=float),
                      np.array([p0, p1], dtype=float))


def critical_ds(coef: PairCoefficients) -> list[float]:
    """Thresholds at and one ulp either side of each row's own window
    minimum distance — where the solve's decision flips."""
    _, f = window_minimum(coef.a, coef.b, coef.c0, coef.t0, coef.t1)
    f = np.where(coef.a <= _EPS, coef.c0, f)
    out = []
    for dm in np.sqrt(np.maximum(f, 0.0)):
        out += [float(dm), float(np.nextafter(dm, 0.0)),
                float(np.nextafter(dm, np.inf)),
                float(dm * (1 + 1e-12)), float(dm * (1 - 1e-12))]
    return [d for d in out if np.isfinite(d) and d >= 0.0]


coords = st.floats(min_value=-50, max_value=50, allow_nan=False)
offsets = st.floats(min_value=0, max_value=10, allow_nan=False)
lengths = st.floats(min_value=0.1, max_value=10)


# -- a pair exactly at distance d ------------------------------------------


@given(st.floats(min_value=1e-3, max_value=20), lengths, coords)
@settings(max_examples=150, deadline=None)
def test_constant_offset_exactly_d(d, length, x0):
    """Parallel motion at offset d: c0 == d*d, so the pair hits."""
    q = seg(0, 0.0, length, [x0, 0, 0], [x0 + 3.0, 0, 0])
    e = seg(1, 0.0, length, [x0, d, 0], [x0 + 3.0, d, 0])
    coef = one_pair(q, e)
    assert_matches_reference(coef, d)
    for dd in critical_ds(coef):
        assert_matches_reference(coef, dd)


@given(st.floats(min_value=1e-3, max_value=20), lengths, coords, coords)
@settings(max_examples=150, deadline=None)
def test_fly_by_at_closest_approach_d(d, length, vx, x0):
    """A straight fly-by whose closest approach is d, thresholded at
    that distance and one ulp either side."""
    q = seg(0, 0.0, length, [x0, 0, 0], [x0, 0, 0])
    e = seg(1, 0.0, length, [x0 - vx * length / 2, d, 0],
            [x0 + vx * length / 2, d, 0])
    coef = one_pair(q, e)
    for dd in [d] + critical_ds(coef):
        assert_matches_reference(coef, dd)


# -- intervals that only touch ---------------------------------------------


@given(offsets, lengths, lengths, st.lists(coords, min_size=12,
                                            max_size=12))
@settings(max_examples=150, deadline=None)
def test_touching_intervals(t_touch, len_q, len_e, pts):
    """The overlap is the single instant where one segment ends and the
    other starts."""
    q = seg(0, t_touch - len_q, t_touch, pts[0:3], pts[3:6])
    e = seg(1, t_touch, t_touch + len_e, pts[6:9], pts[9:12])
    coef = one_pair(q, e)
    assert coef.num_alive == 1 and coef.t0[0] == coef.t1[0]
    for dd in critical_ds(coef) + [0.0, 1.0, 100.0]:
        assert_matches_reference(coef, dd)


# -- near-constant relative motion: a just above and below _EPS ------------


def near_eps_pairs(ratio, ux, y, t_start, t_span) -> PairCoefficients:
    """Relative motion ``(ux + w t, y, 0)`` with ``|w|^2 = ratio * _EPS``,
    over the window ``[t_start, t_start + t_span]``."""
    w = np.sqrt(np.asarray(ratio, dtype=float) * _EPS)
    ux = np.asarray(ux, dtype=float) + 0.0 * w
    y = np.asarray(y, dtype=float) + 0.0 * w
    n = w.size
    t0 = np.full(n, float(t_start))
    return PairCoefficients(
        num_pairs=n, alive_idx=np.arange(n), t0=t0, t1=t0 + t_span,
        a=w * w, b=2.0 * (ux * w), c0=ux * ux + y * y)


@given(st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=1e-6, max_value=50.0),
       st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_a_straddles_eps(ratio, ux, y, t_start, t_span):
    """Rows land on both sides of the constant-distance cutoff; below
    it the solver tests ``c0`` alone, however far ``f`` drifts from
    ``c0`` over a late window."""
    coef = near_eps_pairs([ratio], [ux], [y], t_start, t_span)
    for dd in critical_ds(coef) + [abs(y)]:
        assert_matches_reference(coef, dd)


def test_a_straddles_eps_both_sides_seen():
    ratios = np.array([0.5, 0.999, 1.0, 1.001, 2.0])
    coef = near_eps_pairs(ratios, 1e-3, 1e-6, 1e6, 1e5)
    assert np.any(coef.a <= _EPS) and np.any(coef.a > _EPS)
    # f at the window start exceeds c0 by far more than any rounding.
    f_start = coef.a * coef.t0 ** 2 + coef.b * coef.t0 + coef.c0
    assert np.all(f_start > coef.c0 * (1 + 1e-9))
    for dd in critical_ds(coef):
        assert_matches_reference(coef, dd)
    assert solve_intervals(coef, float(np.sqrt(coef.c0[0])) * 1.01
                           ).mask[coef.a <= _EPS].all()


# -- zero-extent segments --------------------------------------------------


@given(offsets, st.floats(min_value=0.0, max_value=5.0),
       st.lists(coords, min_size=9, max_size=9), st.booleans())
@settings(max_examples=150, deadline=None)
def test_zero_extent_segments(t, length, pts, both):
    """Point events (t_start == t_end) are stationary points."""
    e_end = t if both else t + length

    def rows(t0, t1, p0, p1, tid):
        return SegmentArray(*[np.array([v], dtype=float) for v in
                              (*p0, t0, *p1, t1)],
                            traj_ids=np.array([tid]))

    q = rows(t, t, pts[0:3], pts[0:3], 0)
    e = rows(t, e_end, pts[3:6], pts[6:9], 1)
    coef = pair_coefficients(q, e, np.array([0]), np.array([0]))
    assert coef.num_alive == 1
    for dd in critical_ds(coef) + [0.0, 5.0]:
        assert_matches_reference(coef, dd)


# -- large absolute times --------------------------------------------------


@given(st.floats(min_value=1e4, max_value=1e6), lengths, lengths,
       st.floats(min_value=-5, max_value=5),
       st.lists(coords, min_size=12, max_size=12))
@settings(max_examples=200, deadline=None)
def test_large_absolute_times(t_base, len_q, len_e, shift, pts):
    """Absolute times make c0 and b*t* dwarf d^2; the slack scales with
    them, so no hit is lost."""
    q = seg(0, t_base, t_base + len_q, pts[0:3], pts[3:6])
    e = seg(1, t_base + shift, t_base + shift + len_e, pts[6:9],
            pts[9:12])
    coef = one_pair(q, e)
    for dd in critical_ds(coef) + [0.5, 10.0]:
        assert_matches_reference(coef, dd)


# -- empty batches ---------------------------------------------------------


def test_empty_batches():
    db = SegmentArray.from_trajectories(
        [seg(0, 0.0, 1.0, [0, 0, 0], [1, 0, 0]),
         seg(1, 5.0, 6.0, [0, 0, 0], [1, 0, 0])])
    none = pair_coefficients(db, db, np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
    disjoint = pair_coefficients(db, db, np.array([0]), np.array([1]))
    excluded = pair_coefficients(db, db, np.array([0, 1]),
                                 np.array([0, 1]),
                                 exclude_same_trajectory=True)
    for coef, n in ((none, 0), (disjoint, 1), (excluded, 2)):
        assert coef.num_alive == 0
        for d in (0.0, 1.0, 1e9):
            assert_matches_reference(coef, d)
            res = solve_intervals(coef, d)
            assert len(res) == n and res.num_hits == 0
        assert len(coef.take(np.zeros(0, dtype=np.int64), 1.0)) == 0


# -- S3 random-dense pairs at the nine Fig. 6 thresholds --------------------


@pytest.fixture(scope="module")
def s3_pairs() -> PairCoefficients:
    """Every temporal-bin candidate pair of a Random-dense query set."""
    db = random_dense_dataset(scale=0.002, rng=np.random.default_rng(7))
    queries = queries_from_database(db, 2, rng=np.random.default_rng(8))
    index = TemporalIndex.build(db, 400)
    lo, hi = index.candidate_rows(queries.ts, queries.te)
    lens = np.maximum(hi - lo + 1, 0)
    q_idx = np.repeat(np.arange(len(queries)), lens)
    e_idx = np.concatenate([np.arange(a, a + n) for a, n in zip(lo, lens)])
    return pair_coefficients(queries, index.segments, q_idx, e_idx,
                             exclude_same_trajectory=True)


def test_s3_random_dense_all_fig6_d(s3_pairs):
    coef = s3_pairs
    assert coef.num_alive > 100_000
    hits = 0
    for d in FIG6_D:
        assert_matches_reference(coef, d)
        hits += solve_intervals(coef, d).num_hits
        # The prefilter is what makes the solve cheap: few survivors.
        survivors = np.count_nonzero(coef.min_sq() <= d * d * 1.001)
        assert survivors < coef.num_alive // 10
    assert hits > 0
