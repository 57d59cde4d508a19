"""Tables a stream shares across queries: query-order independence of
betweenness, and release of queried streams."""

import gc
import weakref

from linkstream import (
    LinkStream,
    Q,
    TemporalNode,
    betweenness,
    contribution,
    latency_lists,
    parse_stream,
    profile,
    vsp,
)

from conftest import DEMO_TEXT, random_stream, seeded


def quarter_stream(rng, max_nodes=5, max_segments=8, horizon=10):
    """Small random stream with event times on the quarter lattice."""
    n = rng.randint(2, max_nodes)
    nodes = [chr(ord("a") + i) for i in range(n)]
    presence = {}
    for _ in range(rng.randint(1, max_segments)):
        u, v = rng.sample(nodes, 2)
        b = rng.randint(0, 4 * horizon - 1)
        e = rng.randint(b, min(4 * horizon, b + rng.randint(0, 12)))
        key = (u, v) if u < v else (v, u)
        presence.setdefault(key, []).append((Q(b, 4), Q(e, 4)))
    return LinkStream(Q(0), Q(horizon), nodes, presence)


def int_times(stream):
    """The same stream with every time a Python int."""
    presence = {pair: [(int(b), int(e)) for b, e in ivs]
                for pair, ivs in stream.presence.items()}
    return LinkStream(int(stream.alpha), int(stream.omega), stream.nodes,
                      presence)


def probe_times(stream):
    """Window ends, event times and the midpoint of every gap."""
    bounds = [stream.alpha, *stream.event_times(), stream.omega]
    mids = [Q(a + b, 2) for a, b in zip(bounds, bounds[1:]) if a < b]
    return sorted(set(bounds + mids))


class TestSharedTables:
    def test_betweenness_independent_of_earlier_queries(self):
        rng = seeded(77)
        for n in range(11):
            shared = random_stream(rng)
            if n == 10:  # int times, so the gap midpoints are Fractions
                shared = int_times(shared)
            times = probe_times(shared)
            queries = [
                TemporalNode(t, v)
                for t in rng.sample(times, min(4, len(times)))
                for v in rng.sample(shared.nodes, min(2, len(shared.nodes)))
            ]
            # a new LinkStream on the same data (a re-parse would drop the
            # isolated nodes), so every query starts from empty tables
            fresh = [
                betweenness(
                    LinkStream(shared.alpha, shared.omega, shared.nodes, shared.presence),
                    tv,
                )
                for tv in queries
            ]
            order = list(range(len(queries)))
            rng.shuffle(order)
            reused = {k: betweenness(shared, queries[k]) for k in order}
            assert [reused[k] for k in range(len(queries))] == fresh, shared.serialize()

    def test_queried_stream_is_freed(self):
        """A dropped stream and its twin are freed by reference counting
        alone, with the cycle collector off: a parsed stream (with an int
        twin of its own) and an int-built one (its own twin), each after
        one kind of query."""
        tv = TemporalNode(Q(9, 2), "c")
        queries = [
            lambda s: betweenness(s, tv),
            lambda s: profile(s, 40),
            lambda s: vsp(s, TemporalNode(Q(1), "a"), TemporalNode(Q(14), "e")),
            lambda s: contribution(s, "a", "e", tv, latency_lists(s, "a")["e"]),
        ]
        alive = []
        gc.disable()
        try:
            for parsed in (True, False):
                for k, query in enumerate(queries):
                    stream = parse_stream(DEMO_TEXT)
                    if not parsed:
                        stream = int_times(stream)
                    query(stream)
                    refs = weakref.ref(stream), weakref.ref(stream.lattice()[0])
                    del stream
                    if any(ref() is not None for ref in refs):
                        alive.append((parsed, k))
        finally:
            gc.enable()
        assert alive == []
