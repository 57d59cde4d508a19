import pytest

from linkstream import (
    Q,
    SnapshotGraph,
    StreamError,
    TemporalNode,
    V_UNIT,
    Volume,
    parse_stream,
    reachable,
    segment_volume,
    vsp,
)


def tn(t, v):
    return TemporalNode(Q(t) if isinstance(t, int) else t, v)


GOLDEN = [
    ((0, "a"), (14, "e"), Q(4), 4),
    ((4, "a"), (17, "e"), Q(2), 2),
    ((12, "a"), (26, "e"), Q(1), 2),
    ((20, "a"), (32, "e"), Q(11, 2), 4),
    ((0, "a"), (18, "e"), Q(2), 2),
    ((0, "a"), (23, "e"), Q(5), 2),
    ((0, "a"), (26, "e"), Q(3), 3),
    ((0, "a"), (32, "e"), Q(8), 3),
]


class TestSegmentVolume:
    def test_chain(self):
        g = SnapshotGraph("xyw", [("x", "y"), ("y", "w")])
        assert segment_volume(g, "x", "w", Q(0), Q(2)) == Volume(Q(2), 2)

    def test_same_node(self):
        g = SnapshotGraph("xy", [("x", "y")])
        assert segment_volume(g, "x", "x", Q(0), Q(2)) == V_UNIT

    def test_two_parallel_length2_paths(self):
        g = SnapshotGraph(
            "xabw", [("x", "a"), ("a", "w"), ("x", "b"), ("b", "w")]
        )
        assert segment_volume(g, "x", "w", Q(1), Q(4)) == Volume(Q(9), 2)

    def test_unreachable_is_zero(self):
        g = SnapshotGraph("xw", [])
        assert segment_volume(g, "x", "w", Q(0), Q(2)).is_zero()


class TestGoldenVolumes:
    @pytest.mark.parametrize("src,dst,size,dim", GOLDEN)
    def test_golden(self, demo, src, dst, size, dim):
        res = vsp(demo, tn(*src), tn(*dst))
        assert res.volume == Volume(size, dim)

    def test_golden_distance(self, demo):
        assert vsp(demo, tn(0, "a"), tn(32, "e")).distance == 3

    def test_unreachable(self, demo):
        res = vsp(demo, tn(0, "a"), tn(8, "e"))
        assert res.distance is None
        assert res.volume.is_zero()

    def test_source_after_destination_rejected(self, demo):
        with pytest.raises(StreamError):
            vsp(demo, tn(5, "a"), tn(4, "e"))


class TestReachable:
    def test_demo_examples(self, demo):
        assert not reachable(demo, tn(3, "a"), tn(8, "e"))
        assert reachable(demo, tn(0, "a"), tn(14, "e"))
        assert reachable(demo, tn(7, "c"), tn(7, "c"))
        assert not reachable(demo, tn(9, "a"), tn(5, "b"))

    @pytest.mark.parametrize("src,dst", [
        ((5, "zz"), (3, "c")),
        ((5, "a"), (3, "zz")),
        ((40, "a"), (3, "c")),
        ((5, "a"), (-1, "c")),
    ])
    def test_invalid_nodes_rejected_before_time_order(self, demo, src, dst):
        # the source is after the destination, so no path could lead there
        with pytest.raises(StreamError):
            reachable(demo, tn(*src), tn(*dst))


class TestSweepProperties:
    def test_distance_monotone_in_arrival(self, demo):
        for w in demo.nodes:
            prev = None
            for j in range(0, 33):
                d = vsp(demo, tn(0, "a"), tn(j, w)).distance
                if prev is not None and d is not None:
                    assert d <= prev
                if d is not None:
                    prev = d

    def test_concatenation_through_articulation(self):
        # every a-to-c path crosses ab within [1,2] and bc within [8,9], so
        # (5,b) is an articulation temporal node
        stream = parse_stream("0 10\na b 1 2\nb c 8 9\n")
        full = vsp(stream, tn(0, "a"), tn(10, "c"))
        left = vsp(stream, tn(0, "a"), tn(5, "b"))
        right = vsp(stream, tn(5, "b"), tn(10, "c"))
        assert full.volume == Volume(
            left.volume.size * right.volume.size,
            left.volume.dim + right.volume.dim,
        )
        assert full.distance == left.distance + right.distance

    def test_instantaneous_volume_counts_paths(self):
        stream = parse_stream("0 10\na b 3 5\nb c 3 5\na d 3 5\nd c 3 5\n")
        res = vsp(stream, tn(4, "a"), tn(4, "c"))
        assert res.distance == 2
        assert res.volume == Volume(Q(2), 0)
