"""Demand-driven sweeps and the int-only tick path.

A sweep runs `_advance` only up to the latest time read from it, so its
results must not depend on the order in which times are read.  On a stream
whose event times are all ints, an off-lattice time t is located by its
floor and ceiling (`LinkStream.int_bounds`); the same stream with
`Fraction` times (a non-int stream, where every comparison is exact on t
itself) is the reference.
"""

import random

import pytest

from linkstream import (
    LinkStream,
    Q,
    StreamError,
    TemporalNode,
    betweenness,
    contribution,
    latency_lists,
    vsp,
)
from linkstream.shortest_volumes import sweep_tables

from conftest import random_stream, seeded
from test_shared_state import int_times, quarter_stream


def int_stream(rng):
    """A random stream whose every time is a Python int."""
    return int_times(random_stream(rng, max_segments=10, horizon=10))


def as_fractions(stream):
    """The same stream with every time a Fraction: not an int stream."""
    presence = {pair: [(Q(b), Q(e)) for b, e in ivs]
                for pair, ivs in stream.presence.items()}
    return LinkStream(Q(stream.alpha), Q(stream.omega), stream.nodes, presence)


def fresh(stream):
    return LinkStream(stream.alpha, stream.omega, stream.nodes, stream.presence)


def ticks(stream):
    """Window ends, event times, and the halves and thirds of every gap
    between them; times just inside both window ends."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    inner = []
    for b, b2 in zip(bounds, bounds[1:]):
        inner += [b + Q(b2 - b, 2), b + Q(b2 - b, 3), b2 - Q(b2 - b, 3)]
    edges = [stream.alpha + Q(1, 1000), stream.omega - Q(1, 1000)]
    return sorted(set(bounds + inner + edges))


def off_lattice(stream):
    return [t for t in ticks(stream) if Q(t).denominator != 1]


def brute_slot(stream, t):
    events = stream.event_times()
    below = sum(1 for e in events if e < t)
    return 2 * below + 1 if t in events else 2 * below


STREAMS = {"integer": int_stream, "quarter": quarter_stream}


class TestReadOrder:
    @pytest.mark.parametrize("kind", sorted(STREAMS))
    @pytest.mark.parametrize("seed", range(5))
    def test_vsp_independent_of_read_order(self, kind, seed):
        stream = STREAMS[kind](seeded(3100 + seed))
        times = ticks(stream)
        sources = [TemporalNode(x, u) for x in times[::4] for u in stream.nodes]
        queries = [(src, TemporalNode(t, v)) for src in sources
                   for t in times if t >= src.time for v in stream.nodes]
        rng = random.Random(seed)
        reference = {q: vsp(fresh(stream), *q) for q in rng.sample(
            queries, min(len(queries), 300))}
        shuffled = list(queries)
        rng.shuffle(shuffled)
        for order in (queries, queries[::-1], shuffled):
            shared = fresh(stream)
            got = {q: vsp(shared, *q) for q in order}
            for q, expected in reference.items():
                assert got[q] == expected, (stream.serialize(), q)


class TestDemand:
    def test_steps_follow_the_latest_read(self):
        stream = LinkStream(0, 20, "abc", {
            ("a", "b"): [(1, 3), (9, 12)],
            ("b", "c"): [(5, 6), (14, 17)],
        })
        src = TemporalNode(0, "a")
        tables = sweep_tables(stream, 0, "a")
        assert tables.times == [0, 1, 3, 5, 6, 9, 12, 14, 17, 20]
        vsp(stream, src, TemporalNode(0, "b"))
        assert tables.steps_run == 0
        vsp(stream, src, TemporalNode(Q(1, 2), "b"))  # a gap extension
        assert tables.steps_run == 0
        for j, t in enumerate(tables.times):
            vsp(stream, src, TemporalNode(t, "c"))
            assert tables.steps_run == j
            # earlier times and gap extensions after t run nothing more
            vsp(stream, src, TemporalNode(0, "c"))
            vsp(stream, src, TemporalNode(t + Q(1, 3) if t < 20 else t, "c"))
            assert tables.steps_run == j

    def test_off_lattice_source(self):
        stream = LinkStream(0, 10, "ab", {("a", "b"): [(2, 4), (6, 8)]})
        tables = sweep_tables(stream, Q(5, 2), "a")
        assert tables.times == [Q(5, 2), 4, 6, 8, 10]
        vsp(stream, TemporalNode(Q(5, 2), "a"), TemporalNode(Q(7, 2), "b"))
        assert tables.steps_run == 0
        vsp(stream, TemporalNode(Q(5, 2), "a"), TemporalNode(6, "b"))
        assert tables.steps_run == 2


class TestIntTicks:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fraction_comparisons(self, seed):
        stream = int_stream(seeded(3200 + seed))
        exact = as_fractions(stream)
        for t in ticks(stream):
            assert stream.slot(t) == exact.slot(t) == brute_slot(stream, t)
        lists = {u: latency_lists(exact, u) for u in exact.nodes}
        times = off_lattice(stream)
        for t in times:
            for v in stream.nodes:
                tv = TemporalNode(t, v)
                expected = sum((contribution(exact, u, w, tv, lists[u][w]).value
                                for u in exact.nodes for w in exact.nodes), Q(0))
                assert betweenness(stream, tv) == expected

    def test_int_bounds(self):
        stream = LinkStream(0, 10, "ab", {("a", "b"): [(2, 4)]})
        assert stream.int_bounds(Q(7, 2)) == (3, 4)
        assert stream.int_bounds(Q(-1, 3)) == (-1, 0)
        assert stream.int_bounds(Q(3)) == (3, 3)
        assert stream.int_bounds(3) == (3, 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_control_on_a_quarter_stream(self, seed):
        """On non-int event times the floor rule is off: times are compared
        as they are."""
        stream = quarter_stream(seeded(3300 + seed))
        for t in ticks(stream) + [t + Q(1, 8) for t in ticks(stream)][:-1]:
            assert stream.slot(t) == brute_slot(stream, t)
            assert stream.int_bounds(t) == (t, t)


class TestPublicChecks:
    STREAM = LinkStream(0, 10, "abc", {("a", "b"): [(2, 4)], ("b", "c"): [(5, 6)]})

    @pytest.mark.parametrize("tv", [
        TemporalNode(11, "b"), TemporalNode(Q(-1, 2), "b"), TemporalNode(5, "z"),
    ], ids=["after_omega", "before_alpha", "unknown_node"])
    def test_contribution_and_vsp_validate(self, tv):
        stream = self.STREAM
        ll = latency_lists(stream, "a")["c"]
        with pytest.raises(StreamError):
            contribution(stream, "a", "c", tv, ll)
        with pytest.raises(StreamError):
            vsp(stream, TemporalNode(0, "a"), tv)
        if tv.time <= 10:
            with pytest.raises(StreamError):
                vsp(stream, tv, TemporalNode(10, "c"))
        with pytest.raises(StreamError):
            betweenness(stream, tv)
