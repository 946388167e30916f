"""Tests for the R-tree baseline index (STR and Guttman builds)."""

import numpy as np
import pytest

from repro.core.geometry import segment_mbbs
from repro.core.types import SegmentArray
from repro.indexes.rtree import RTree, RTreeNode
from repro.indexes.rtree_insert import GuttmanBuilder
from tests.conftest import make_walk_trajectories


@pytest.fixture(scope="module", params=["guttman", "str"])
def tree(request, ):
    db = SegmentArray.from_trajectories(make_walk_trajectories(30, 20,
                                                               seed=42))
    return RTree.build(db, segments_per_mbb=4, fanout=8,
                       method=request.param, temporal_axis=True), db


def walk(node: RTreeNode):
    yield node
    for c in node.children:
        yield from walk(c)


class TestBuild:
    def test_rejects_bad_params(self, small_db):
        with pytest.raises(ValueError):
            RTree.build(small_db, segments_per_mbb=0)
        with pytest.raises(ValueError):
            RTree.build(small_db, fanout=1)
        with pytest.raises(ValueError):
            RTree.build(small_db, method="bogus")
        with pytest.raises(ValueError):
            RTree.build(SegmentArray.empty())

    def test_leaf_count(self, tree):
        t, db = tree
        # 30 trajectories of 19 segments at r=4: ceil(19/4)=5 chunks each.
        assert t.num_leaf_mbbs == 30 * 5

    def test_leaves_never_span_trajectories(self, tree):
        t, _ = tree
        seg = t.segments
        for node in walk(t.root):
            if node.is_leaf:
                for lo, hi in node.ranges:
                    tids = seg.traj_ids[lo:hi + 1]
                    assert np.all(tids == tids[0])
                    # and are time-ordered consecutive rows
                    assert np.all(np.diff(seg.ts[lo:hi + 1]) >= 0)

    def test_containment_invariant(self, tree):
        """Every child box is contained in its parent's recorded box."""
        t, _ = tree

        def check(node, lo=None, hi=None):
            if lo is not None:
                assert np.all(node.child_lo >= lo - 1e-9)
                assert np.all(node.child_hi <= hi + 1e-9)
            for i, c in enumerate(node.children):
                check(c, node.child_lo[i], node.child_hi[i])
        check(t.root)

    def test_leaf_boxes_bound_their_segments(self, tree):
        t, _ = tree
        boxes = segment_mbbs(t.segments, temporal=True)
        for node in walk(t.root):
            if not node.is_leaf:
                continue
            for col, (lo, hi) in enumerate(node.ranges):
                rows = np.arange(lo, hi + 1)
                assert np.all(boxes.lo[rows] >= node.child_lo[col] - 1e-9)
                assert np.all(boxes.hi[rows] <= node.child_hi[col] + 1e-9)

    def test_ranges_tile_database(self, tree):
        t, _ = tree
        rows = []
        for node in walk(t.root):
            if node.is_leaf:
                for lo, hi in node.ranges:
                    rows.append(np.arange(lo, hi + 1))
        rows = np.sort(np.concatenate(rows))
        np.testing.assert_array_equal(rows, np.arange(len(t.segments)))

    def test_fanout_respected(self, tree):
        t, _ = tree
        for node in walk(t.root):
            assert 1 <= node.num_children <= t.fanout

    def test_depth_and_nodes(self, tree):
        t, _ = tree
        assert t.depth() >= 2
        assert t.num_nodes == sum(1 for _ in walk(t.root))

    def test_3d_build_has_no_time_axis(self, small_db):
        t = RTree.build(small_db, temporal_axis=False)
        assert t.root.child_lo.shape[1] == 3


class TestGuttmanSpecifics:
    def test_min_fanout_guard(self):
        with pytest.raises(ValueError, match="at least 4"):
            GuttmanBuilder(fanout=3)

    def test_min_fill_after_splits(self, small_db):
        t = RTree.build(small_db, segments_per_mbb=2, fanout=8,
                        method="guttman")
        # All non-root nodes respect minimum fill M//2.
        for node in walk(t.root):
            for c in node.children:
                assert c.num_children >= 4 or c is t.root

    def test_insertion_order_independent_correctness(self, small_db,
                                                     small_queries):
        """Different orders give different trees but identical search
        results."""
        from repro.engines.cpu_rtree import CpuRTreeEngine
        res = []
        for method in ("guttman", "str"):
            eng = CpuRTreeEngine(small_db, build_method=method)
            r, _ = eng.search(small_queries, 2.5)
            res.append(r)
        assert res[0].equivalent_to(res[1])


class TestQueryCandidates:
    def test_candidates_complete(self, tree, small_queries):
        """Every true result pair's entry row appears among the query's
        candidates (index may over-approximate, never miss)."""
        t, db = tree
        d = 2.5
        from repro.core.bruteforce import brute_force_search
        truth = brute_force_search(small_queries, t.segments, d)
        cands, visits = t.query_candidates(small_queries, d)
        row_of_id = {int(s): r for r, s in enumerate(t.segments.seg_ids)}
        qrow_of_id = {int(s): r
                      for r, s in enumerate(small_queries.seg_ids)}
        for qid, eid in truth.pairs():
            assert row_of_id[eid] in cands[qrow_of_id[qid]]

    def test_visits_positive_and_bounded(self, tree, small_queries):
        t, _ = tree
        _, visits = t.query_candidates(small_queries, 1.0)
        assert np.all(visits >= 1)          # at least the root
        assert np.all(visits <= t.num_nodes)

    def test_candidates_grow_with_d(self, tree, small_queries):
        t, _ = tree
        sizes = []
        for d in (0.1, 2.0, 10.0):
            cands, _ = t.query_candidates(small_queries, d)
            sizes.append(sum(c.size for c in cands))
        assert sizes == sorted(sizes)

    def test_larger_r_fewer_nodes_more_candidates(self, small_db,
                                                  small_queries):
        """The paper's r trade-off (§V-B)."""
        small = RTree.build(small_db, segments_per_mbb=1, fanout=8)
        large = RTree.build(small_db, segments_per_mbb=16, fanout=8)
        assert large.num_nodes < small.num_nodes
        c_small, _ = small.query_candidates(small_queries, 1.0)
        c_large, _ = large.query_candidates(small_queries, 1.0)
        assert (sum(c.size for c in c_large)
                >= sum(c.size for c in c_small))

    def test_empty_query_set(self, tree):
        t, _ = tree
        cands, visits = t.query_candidates(SegmentArray.empty(), 1.0)
        assert cands == [] and visits.size == 0

    def test_nbytes(self, tree):
        t, _ = tree
        assert t.nbytes() > 0

    def test_nbytes_cached_equals_fresh_walk(self, tree):
        """The once-per-tree footprint equals a fresh walk of the nodes,
        for both the STR and the insertion (Guttman) builds."""
        t, _ = tree
        fresh = sum(n.child_lo.nbytes + n.child_hi.nbytes
                    + (n.ranges.nbytes if n.ranges is not None else 0)
                    for n in walk(t.root))
        assert t.nbytes() == fresh
        assert t.nbytes() == fresh  # second call served from the cache
