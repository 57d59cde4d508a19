"""Demand-driven sweeps and the int tick path.

A sweep runs `_advance` only up to the latest time read from it, so its
results must not depend on the order in which times are read.  Every stream
places a time t among the int ticks of its event times, and checks it
against the window, by the floor and the ceiling of t * L
(`LinkStream._tick_bounds`, read by `_place`, behind `slot` and the sweep's
reads); on an int stream `betweenness`
compares those ints with the latency lists, and the same stream with
`Fraction` times, where the public `contribution` compares t itself, is the
reference.
"""

import random
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

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
from linkstream.shortest_volumes import SweepTables, sweep_tables

from conftest import random_stream, seeded
from test_lattice import huge_stream
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


def probes(stream, later=0):
    """Window ends, event times, the halves and thirds of every gap between
    them, and the times 1/1000 inside both window ends, each moved `later`:
    on a window narrower than 1/1000, or moved past omega, some of them lie
    outside the window."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    inner = []
    for b, b2 in zip(bounds, bounds[1:]):
        inner += [b + Q(b2 - b, 2), b + Q(b2 - b, 3), b2 - Q(b2 - b, 3)]
    edges = [stream.alpha + Q(1, 1000), stream.omega - Q(1, 1000)]
    return sorted({t + later for t in bounds + inner + edges})


def ticks(stream, later=0):
    """The `probes` inside the window."""
    return [t for t in probes(stream, later) if stream.alpha <= t <= stream.omega]


def outside(stream, later=0):
    """The `probes` outside the window."""
    return [t for t in probes(stream, later) if not stream.alpha <= t <= stream.omega]


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
        assert tables.times == [0, 1, 3, 5, 6, 9, 12, 14, 17]
        vsp(stream, src, TemporalNode(0, "b"))
        assert tables.steps_run == 0
        vsp(stream, src, TemporalNode(Q(1, 2), "b"))  # a gap extension
        assert tables.steps_run == 0
        for j, t in enumerate(tables.times):
            vsp(stream, src, TemporalNode(t, "c"))
            assert tables.steps_run == j
            # earlier times and gap extensions after t run nothing more
            vsp(stream, src, TemporalNode(0, "c"))
            vsp(stream, src, TemporalNode(t + Q(1, 3), "c"))
            assert tables.steps_run == j
        # omega, off the event times, is a gap extension too
        vsp(stream, src, TemporalNode(20, "c"))
        assert tables.steps_run == 8 and 20 in tables._extensions

    def test_off_lattice_source(self):
        stream = LinkStream(0, 10, "ab", {("a", "b"): [(2, 4), (6, 8)]})
        tables = sweep_tables(stream, Q(5, 2), "a")
        assert tables.times == [Q(5, 2), 4, 6, 8]
        vsp(stream, TemporalNode(Q(5, 2), "a"), TemporalNode(Q(7, 2), "b"))
        assert tables.steps_run == 0
        vsp(stream, TemporalNode(Q(5, 2), "a"), TemporalNode(6, "b"))
        assert tables.steps_run == 2
        vsp(stream, TemporalNode(Q(5, 2), "a"), TemporalNode(10, "b"))
        assert tables.steps_run == 3 and 10 in tables._extensions


def widened(stream, omega_event):
    """The stream on a window one unit wider at both ends, so that alpha is
    no event time; with `omega_event`, one more link makes omega one."""
    alpha, omega = stream.alpha - 1, stream.omega + 1
    presence = {pair: list(ivs) for pair, ivs in stream.presence.items()}
    if omega_event:
        presence.setdefault(stream.nodes[:2], []).append((omega, omega))
    return LinkStream(alpha, omega, stream.nodes, presence)


def typed(result):
    return result, type(result.volume.size), type(result.distance)


class TestSweepAtTheWindowEnd:
    """Sweep step n arrives at the slot of event time first + n - 1; omega
    off the event times is read as a gap extension, like any other time
    off them.  Sources at alpha, in the last gap, at the last event time
    and at omega, each read at omega and just before it, give what a fresh
    stream gives for that read alone, whatever the order."""

    @pytest.mark.parametrize("omega_event", [False, True], ids=["gap", "event"])
    @pytest.mark.parametrize("kind", sorted(STREAMS))
    @pytest.mark.parametrize("seed", range(3))
    def test_reads_at_omega(self, kind, seed, omega_event):
        stream = widened(STREAMS[kind](seeded(3400 + seed)), omega_event)
        alpha, omega, events = stream.alpha, stream.omega, stream.event_times()
        assert alpha < events[0] and (events[-1] == omega) == omega_event
        bounds = sorted({*events, omega})
        last_gap = Q(bounds[-2] + bounds[-1]) / 2
        sources = [(x, u) for x in (alpha, last_gap, events[-1], omega)
                   for u in stream.nodes]
        reads = [(t, v) for t in (omega - Q(1, 10**40), omega)
                 for v in stream.nodes]
        queries = [(TemporalNode(*src), TemporalNode(*dst))
                   for src in sources for dst in reads if src[0] <= dst[0]]
        single = {}
        for src, dst in queries:
            alone = fresh(stream)
            single[src, dst] = typed(vsp(alone, src, dst))
            tables = sweep_tables(alone, *src)
            planned = [src.time] + [e for e in events if e > src.time]
            assert tables.times == planned
            assert tables.steps_run == sum(1 for t in tables.times[1:]
                                           if t <= dst.time)
            assert (dst.time in tables._extensions) == (
                dst.time not in tables.times)
        for order in (queries, queries[::-1]):
            shared = fresh(stream)
            latest = {}
            for src, dst in order:
                assert typed(vsp(shared, src, dst)) == single[src, dst]
                latest[src] = max(latest.get(src, src.time), dst.time)
                tables = sweep_tables(shared, *src)
                assert tables.steps_run == sum(1 for t in tables.times[1:]
                                               if t <= latest[src])


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

    @pytest.mark.parametrize("t,lo,hi", [
        (Q(7, 2), 3, 4), (Q(-1, 3), -1, 0), (Q(-7, 2), -4, -3),
        (Q(3), 3, 3), (3, 3, 3), (-3, -3, -3), (Q(-6, 2), -3, -3),
        (Q(1, 10**40), 0, 1), (-Q(1, 10**40), -1, 0), (4 - Q(1, 10**40), 3, 4),
        (Q(10**40 + 1, 10**40), 1, 2),
    ])
    def test_tick_bounds_on_an_int_stream(self, t, lo, hi):
        stream = LinkStream(-10, 10, "ab", {("a", "b"): [(-2, 4)]})
        assert stream._tick_bounds(t) == (lo, hi)

    @pytest.mark.parametrize("t,lo,hi", [
        (Q(7, 2), 14, 14), (Q(-1, 4), -1, -1), (-3, -12, -12), (Q(-1, 3), -2, -1),
        (Q(1, 3), 1, 2), (-Q(1, 10**40), -1, 0), (Q(1, 4) + Q(1, 10**40), 1, 2),
        (Q(-1, 4) - Q(1, 10**40), -2, -1),
    ])
    def test_tick_bounds_on_a_quarter_stream(self, t, lo, hi):
        stream = LinkStream(Q(-10), Q(10), "ab", {("a", "b"): [(Q(-9, 4), Q(1, 2))]})
        assert stream.scale() == 4
        assert stream._tick_bounds(t) == (lo, hi)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(num=st.integers(-10**45, 10**45), den=st.integers(1, 10**42),
           scale=st.sampled_from([1, 4, 12, 3 * 10**40 + 1]))
    def test_tick_bounds_are_floor_and_ceiling(self, num, den, scale):
        stream = LinkStream(Q(0), Q(1), "ab", {("a", "b"): [(Q(0), Q(1, scale))]})
        assert stream.scale() == scale
        t = Q(num, den)
        assert stream._tick_bounds(t) == (floor(t * scale), ceil(t * scale))
        if t.denominator == 1:
            assert stream._tick_bounds(int(t)) == (t * scale, t * scale)

    @pytest.mark.parametrize("seed", range(8))
    def test_control_on_a_quarter_stream(self, seed):
        """On non-int event times t is placed by the ticks of t * 4."""
        stream = quarter_stream(seeded(3300 + seed))
        for t in ticks(stream) + ticks(stream, Q(1, 8)):
            assert stream.slot(t) == brute_slot(stream, t)


class TestPlacement:
    """`_place` gives the number of event times at or before t and whether
    t is one of them; `slot` and `SweepTables.state_at` both read it."""

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_count_of_event_times(self, kind, seed):
        stream = STREAMS[kind](seeded(3500 + seed))
        events = stream.event_times()
        for t in ticks(stream) + ticks(stream, Q(1, 8)):
            n, on = stream._place(t)
            assert (n, on) == (sum(1 for e in events if e <= t), t in events)
            assert type(on) is bool
            assert stream.slot(t) == 2 * n - on == brute_slot(stream, t)

    @pytest.mark.parametrize("kind", sorted(STREAMS) + ["huge"])
    @pytest.mark.parametrize("seed", range(4))
    def test_rejects_the_probes_outside_the_window(self, kind, seed):
        """The probes that lie outside the window: 1/8 after those within
        1/8 of omega and, on the narrow window of a huge stream, the times
        1/1000 from its ends too.  Each is rejected, also as a source."""
        stream = {**STREAMS, "huge": huge_stream}[kind](seeded(3500 + seed))
        times = outside(stream) + outside(stream, Q(1, 8))
        assert times
        for t in times:
            for place in (stream._place, stream.slot,
                          lambda t: SweepTables(stream, t, stream.nodes[0])):
                with pytest.raises(StreamError, match="outside"):
                    place(t)

    @pytest.mark.parametrize("kind", sorted(STREAMS))
    @pytest.mark.parametrize("seed", range(4))
    def test_reads_before_and_at_the_source(self, kind, seed):
        """A read before the source time raises; one at it is the source
        state, also when the source lies off the event times."""
        stream = STREAMS[kind](seeded(3600 + seed))
        for x in ticks(stream)[1:]:
            queried = fresh(stream)
            tables = sweep_tables(queried, x, stream.nodes[0])
            for before in (x - Q(1, 10**40), x - Q(1, 8)):
                if before >= stream.alpha:
                    with pytest.raises(StreamError, match="before source"):
                        tables.state_at(before, queried)
            assert tables.state_at(x, queried) is tables.states[0]
            assert tables.steps_run == 0 and not tables._extensions


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
