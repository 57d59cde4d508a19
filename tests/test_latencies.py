from fractions import Fraction
from operator import lt

import pytest

from linkstream import (
    GridSpec,
    LatencyList,
    LatencyPair,
    LinkStream,
    Q,
    StreamError,
    TemporalNode,
    betweenness,
    cell_ratio,
    contribution,
    grid_fastest,
    latency,
    latency_lists,
    parse_stream,
    reachable,
    vsp,
)
from linkstream import latencies
from linkstream.latencies import _lists, _scan

from conftest import (DEMO_TEXT, random_stream, relay_stream,
                      reversed_stream, seeded)
from test_shared_state import quarter_stream


SCAN_STREAMS = {
    "integer": lambda rng: random_stream(rng, max_segments=14),
    "quarter": lambda rng: quarter_stream(rng, max_segments=14),
    "relay": relay_stream,
}


def pairs(lst):
    return [(s, a) for s, a in lst]


def reference_lists(stream, u):
    """Latency lists from u by their definition, from vsp reachability
    alone.  Reachability from (x, u) to (y, w) can only grow as x falls or
    y rises, and it is constant over each open gap, so a non-instantaneous
    pair (s, a) of event times is a latency pair iff (s, a) is reachable and
    neither (s+, a) nor (s, a-) is, where s+ and a- are the midpoints of the
    gaps after s and before a.  An instantaneous pair is listed at each
    event time t where (t, t) is reachable."""
    ev = stream.event_times()
    after = {s: (s + s2) / 2 for s, s2 in zip(ev, ev[1:])}
    before = {a: (a1 + a) / 2 for a1, a in zip(ev, ev[1:])}

    def reach(x, w, y):
        return vsp(stream, TemporalNode(x, u),
                   TemporalNode(y, w)).distance is not None

    return {w: [(s, a) for a in ev for s in ev if s <= a and reach(s, w, a)
                and (s == a or not (reach(after[s], w, a)
                                    or reach(s, w, before[a])))]
            for w in stream.nodes}


class TestLatencyLists:
    def test_demo_a_to_e(self, demo):
        lst = latency_lists(demo, "a")["e"]
        assert pairs(lst) == [(2, 9), (9, 16), (16, 23), (24, 30)]

    def test_demo_b_to_d(self, demo):
        lst = latency_lists(demo, "b")["d"]
        assert pairs(lst) == [
            (5, 6), (12, 12), (14, 14), (19, 19), (27, 27), (28, 28)
        ]

    def test_self_list_has_all_event_times(self, demo):
        lst = latency_lists(demo, "a")["a"]
        assert pairs(lst) == [(t, t) for t in demo.event_times()]

    def test_isolated_node(self):
        stream = parse_stream("0 10\na b 1 2\n")
        stream2 = parse_stream("0 10\na b 1 2\nb c 20/10 2\n")
        lists = latency_lists(stream, "a")
        assert pairs(lists["b"]) == [(1, 1), (2, 2)]
        lists2 = latency_lists(stream2, "c")
        assert pairs(lists2["a"]) == [(2, 2)]

    def test_unknown_source(self, demo):
        with pytest.raises(StreamError):
            latency_lists(demo, "z")

    def test_getitem_matches_list(self, demo):
        lst = latency_lists(demo, "b")["d"]
        whole = list(lst)
        n = len(whole)
        for k in range(-n, n):
            assert lst[k] == whole[k]
            assert type(lst[k]) is LatencyPair
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                lst[k]
        for sl in (slice(None), slice(1, 3), slice(-2, None),
                   slice(None, None, -1), slice(0, 10, 2), slice(4, 1)):
            assert lst[sl] == whole[sl]

    def test_component_kept_across_event_times(self):
        # {a,b,c} at 2 and again at 4, {c,d} at 6 and again at 7
        stream = parse_stream("0 10\na b 1 4\nb c 2 4\nc d 6 7\n")
        lists = latency_lists(stream, "a")
        assert pairs(lists["b"]) == [(1, 1), (2, 2), (4, 4)]
        assert pairs(lists["c"]) == [(2, 2), (4, 4)]
        assert pairs(lists["d"]) == [(4, 6)]
        lists = latency_lists(stream, "d")
        assert pairs(lists["c"]) == [(6, 6), (7, 7)]
        assert pairs(lists["a"]) == []
        every = _scan(stream, set(stream.nodes))
        for u in stream.nodes:
            assert ({w: pairs(ll) for w, ll in every[u].items()}
                    == reference_lists(stream, u))

    def test_component_reformed_after_a_split(self):
        # {a,b} at 1, {b,c} at 2, {a,b} again at 3: c reaches a through b
        stream = parse_stream("0 10\na b 1 1\nb c 2 2\na b 3 3\n")
        assert pairs(latency_lists(stream, "c")["a"]) == [(2, 3)]
        assert pairs(latency_lists(stream, "a")["c"]) == [(1, 2)]
        every = _scan(stream, set(stream.nodes))
        for u in stream.nodes:
            assert ({w: pairs(ll) for w, ll in every[u].items()}
                    == reference_lists(stream, u))

    def test_componentwise_increasing_enforced(self):
        with pytest.raises(ValueError):
            LatencyList([Q(1), Q(2)], [Q(5), Q(4)])

    def test_componentwise_increasing_accepted(self):
        ll = LatencyList([Q(1), Q(2)], [Q(4), Q(5)])
        assert pairs(ll) == [(1, 4), (2, 5)]

    def test_componentwise_increasing_on_demo(self, demo):
        for u in demo.nodes:
            for lst in latency_lists(demo, u).values():
                for (s, a), (s2, a2) in zip(lst, lst[1:]):
                    assert s < s2 and a < a2

    @pytest.mark.parametrize("kind", sorted(SCAN_STREAMS))
    @pytest.mark.parametrize("seed", range(15))
    def test_scan_builds_increasing_lists(self, kind, seed):
        # the scan takes its lists unchecked: each must be componentwise
        # strictly increasing, on the stream and on its int twin
        stream = SCAN_STREAMS[kind](seeded(2600 + seed))
        for part in (stream, stream.lattice()[0]):
            built = _scan(part, set(part.nodes))
            assert set(built) == set(part.nodes)
            for lists in built.values():
                for ll in lists.values():
                    assert all(map(lt, ll.starts, ll.starts[1:]))
                    assert all(map(lt, ll.arrivals, ll.arrivals[1:]))

    def test_no_nested_pair_is_reachable(self, demo):
        # strictly nested event-time windows inside a latency pair admit no
        # path; otherwise the outer pair would not be a latency pair
        lst = latency_lists(demo, "a")["e"]
        events = demo.event_times()
        for s, a in pairs(lst):
            if s == a:
                continue
            inner = [t for t in events if s < t < a]
            for s2 in inner:
                for a2 in inner:
                    if s2 <= a2:
                        assert not reachable(
                            demo,
                            TemporalNode(s2, "a"),
                            TemporalNode(a2, "e"),
                        )


class TestLatencyQuery:
    def test_demo_latency_from_0(self, demo):
        # the pair (24,30) yields duration 6, the minimum over the window
        assert latency(demo, TemporalNode(Q(0), "a"), "e") == 6

    def test_same_node(self, demo):
        assert latency(demo, TemporalNode(Q(0), "a"), "a") == 0

    def test_unreachable_window(self, demo):
        assert latency(
            demo, TemporalNode(Q(3), "a"), "e", arrive_by=Q(8)
        ) is None

    def test_arrive_by_before_start(self, demo):
        for w in ("a", "e"):
            assert latency(
                demo, TemporalNode(Q(10), "a"), w, arrive_by=Q(5)
            ) is None

    def test_instantaneous(self, demo):
        assert latency(demo, TemporalNode(Q(4), "b"), "c") == 0

    def test_windowed(self, demo):
        assert latency(demo, TemporalNode(Q(0), "a"), "e", arrive_by=Q(16)) == 7
        assert latency(demo, TemporalNode(Q(10), "a"), "e", arrive_by=Q(25)) == 7

    def test_arrive_by_outside_window(self, demo):
        for y in (Q(100), Q(-1)):
            with pytest.raises(StreamError, match="outside"):
                latency(demo, TemporalNode(Q(0), "a"), "e", arrive_by=y)


def fresh(stream):
    """A copy of the stream with empty tables."""
    return LinkStream(stream.alpha, stream.omega, stream.nodes,
                      stream.presence)


class TestTable:
    """The stream's latency-list table holds the sources that queries read,
    and its lists do not depend on the order they were filled in."""

    def test_filled_for_the_sources_read(self, monkeypatch):
        demo = parse_stream(DEMO_TEXT)
        latency(demo, TemporalNode(Q(0), "a"), "e")
        assert set(demo._latency_lists) == {"a"}
        ll = latency_lists(parse_stream(DEMO_TEXT), "b")["e"]
        contribution(demo, "b", "e", TemporalNode(Q(9, 2), "c"), ll)
        assert set(demo._latency_lists) == {"a", "b", "c"}
        demo = parse_stream(DEMO_TEXT)
        cell_ratio(demo, "b", "e", TemporalNode(Q(9, 2), "c"), ll,
                   Q(1), Q(14))
        assert set(demo._latency_lists) == {"b", "c"}
        scans = []

        def counted(stream, sources):
            scans.append(set(sources))
            return _scan(stream, sources)

        monkeypatch.setattr(latencies, "_scan", counted)
        stream = LinkStream(0, 10, "abcd", {("a", "b"): [(1, 5)],
                                            ("b", "c"): [(3, 8)]})
        betweenness(stream, TemporalNode(Q(7, 2), "b"))
        betweenness(stream, TemporalNode(4, "c"))
        assert scans == [set(stream.nodes)]
        assert set(stream._latency_lists) == set(stream.nodes)

    def test_independent_of_fill_order(self):
        rng = seeded(83)
        for make in (random_stream, quarter_stream) * 10:
            stream = make(rng)
            nodes = list(stream.nodes)
            whole = fresh(stream)
            _lists(whole, nodes)
            one_by_one = fresh(stream)
            for u in rng.sample(nodes, len(nodes)):
                latency_lists(one_by_one, u)
            subsets = fresh(stream)
            for _ in range(2):
                _lists(subsets, rng.sample(nodes, rng.randint(1, len(nodes))))
            _lists(subsets, nodes)
            assert whole._latency_lists == one_by_one._latency_lists
            assert whole._latency_lists == subsets._latency_lists


class TestAgainstOracle:
    def test_latency_matches_grid_fastest(self):
        # by omega, and by a time before, at and after the source time, to
        # the source node too
        rng = seeded(77)
        grid = GridSpec(Fraction(1, 2))
        for _ in range(15):
            stream = random_stream(rng)
            for _ in range(6):
                k = rng.randint(0, 20)
                x, u = Q(k), rng.choice(stream.nodes)
                bys = [None, x, Q(rng.randint(2 * k, 40), 2)]
                if k:
                    bys.append(Q(rng.randint(0, 2 * k - 1), 2))
                src = TemporalNode(x, u)
                for w in (u, rng.choice(stream.nodes)):
                    for by in bys:
                        est = grid_fastest(stream, src, w, grid, arrive_by=by)
                        assert est == latency(stream, src, w, arrive_by=by), \
                            (x, u, w, by)

    def test_lists_match_their_definition(self):
        rng = seeded(79)
        for _ in range(20):
            stream = random_stream(rng, max_nodes=7, max_segments=14,
                                   horizon=30)
            for st in (stream, reversed_stream(stream)):
                every = _scan(st, set(st.nodes))
                for u in st.nodes:
                    lists = latency_lists(st, u)
                    got = {w: pairs(ll) for w, ll in lists.items()}
                    assert got == reference_lists(st, u)
                    assert every[u] == lists

    def test_pairs_are_consistent_with_vsp(self):
        rng = seeded(78)
        for _ in range(10):
            stream = random_stream(rng)
            for u in stream.nodes:
                lists = latency_lists(stream, u)
                for w in stream.nodes:
                    for s, a in pairs(lists[w]):
                        if s != a:
                            assert vsp(
                                stream,
                                TemporalNode(s, u),
                                TemporalNode(a, w),
                            ).distance is not None
