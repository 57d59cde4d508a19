import pytest
from hypothesis import given, settings, strategies as st

import linkstream.stream
from linkstream import (
    LinkStream,
    Q,
    SnapshotGraph,
    bfs_counts,
    connected_components,
)

from conftest import random_stream, relay_stream, seeded
from test_shared_state import int_times


def graph(nodes, edges):
    return SnapshotGraph(nodes, edges)


class TestBfsCounts:
    def test_two_edge_chain(self, demo):
        g = demo.graph_at(Q(19))  # edges bc, cd
        res = bfs_counts(g, "b")
        assert res.dist["d"] == 2
        assert res.count["d"] == 1

    def test_source_properties(self):
        g = graph("abc", [("a", "b")])
        res = bfs_counts(g, "a")
        assert res.dist["a"] == 0 and res.count["a"] == 1

    def test_isolated_source(self):
        g = graph("abc", [("b", "c")])
        res = bfs_counts(g, "a")
        assert set(res.dist) == {"a"}

    def test_unknown_source(self):
        with pytest.raises(KeyError):
            bfs_counts(graph("ab", []), "z")

    def test_diamond_counts_multiply(self):
        g = graph("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        res = bfs_counts(g, "a")
        assert res.dist["d"] == 2 and res.count["d"] == 2

    def test_count_recurrence(self):
        rng = seeded(42)
        names = "abcdefg"
        for _ in range(30):
            n = rng.randint(2, 7)
            nodes = names[:n]
            edges = [
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1:]
                if rng.random() < 0.4
            ]
            g = graph(nodes, edges)
            res = bfs_counts(g, nodes[0])
            for w, dw in res.dist.items():
                if dw == 0:
                    continue
                total = sum(
                    res.count[y]
                    for y in g.neighbors(w)
                    if res.dist.get(y) == dw - 1
                )
                assert res.count[w] == total


class TestConnectedComponents:
    """Components of two or more nodes, in the order of their first nodes:
    a node without a link forms none."""

    def test_demo_at_16(self, demo):
        comps = connected_components(demo.graph_at(Q(16)))
        assert comps == [{"a", "b"}, {"d", "e"}]

    def test_empty_graph_has_none(self):
        assert connected_components(graph("abc", [])) == []

    def test_complete_graph(self):
        g = graph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        assert connected_components(g) == [{"a", "b", "c"}]

    def test_partition(self):
        g = graph("abcde", [("a", "b"), ("d", "e")])
        comps = connected_components(g)
        seen = set()
        for comp in comps:
            assert not (comp & seen)
            seen |= comp
        assert seen == set("abde")


def quartered(stream):
    """The same stream with every time t moved to (t + 1) / 4."""
    def f(t):
        return Q(t + 1, 4)

    presence = {pair: [(f(b), f(e)) for b, e in ivs]
                for pair, ivs in stream.presence.items()}
    return LinkStream(f(stream.alpha), f(stream.omega), stream.nodes, presence)


STREAMS = {"random": random_stream, "relay": relay_stream}
TIMES = {"int": int_times, "quarter": quartered}


class TestStreamComponents:
    def test_demo_slots(self, demo):
        assert demo.components(demo.slot(Q(16))) == [{"a", "b"}, {"d", "e"}]
        assert demo.components(demo.slot(demo.alpha)) == []

    def test_equal_slots_share_one_list(self, demo):
        slots = range(2 * len(demo.event_times()) + 1)
        for k in slots:
            for k2 in slots:
                same = demo.snapshot(k) is demo.snapshot(k2)
                assert (demo.components(k) is demo.components(k2)) == same

    def test_one_search_per_graph(self, demo, monkeypatch):
        searched = []

        def search(graph):
            searched.append(graph)
            return connected_components(graph)

        monkeypatch.setattr(linkstream.stream, "connected_components", search)
        stream = LinkStream(demo.alpha, demo.omega, demo.nodes, demo.presence)
        slots = range(2 * len(stream.event_times()) + 1)
        for k in slots:
            assert stream.components(k) == connected_components(stream.snapshot(k))
        graphs = {stream.snapshot(k) for k in slots}
        assert len(searched) == len(graphs) == len(set(searched))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(STREAMS)),
           times=st.sampled_from(sorted(TIMES)),
           seed=st.integers(0, 10**6))
    def test_components_of_every_slot(self, kind, times, seed):
        stream = TIMES[times](STREAMS[kind](seeded(seed)))
        for k in range(2 * len(stream.event_times()) + 1):
            g = stream.snapshot(k)
            adj = g.adjacency
            comps = stream.components(k)
            # they partition the linked nodes, in the order of first nodes
            assert sum(map(len, comps)) == len(set().union(*comps))
            assert set().union(*comps) == {v for v, nbrs in adj.items() if nbrs}
            firsts = [min(comp) for comp in comps]
            assert firsts == sorted(firsts)
            for comp in comps:
                # no link leaves a component, and each one is connected
                assert all(y in comp for v in comp for y in adj[v])
                assert set(bfs_counts(g, min(comp)).dist) == comp
