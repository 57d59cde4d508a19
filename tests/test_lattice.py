"""The integer-time twin behind `betweenness` and `profile`: its scale, its
exactness against the user-stream pipeline, int-built streams, and
degenerate windows."""

from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from linkstream import (
    LinkStream,
    Q,
    TemporalNode,
    Volume,
    betweenness,
    cell_ratio,
    cli,
    contribution,
    latency,
    latency_lists,
    next_list,
    parse_stream,
    prev_list,
    profile,
    reachable,
    vsp,
)

from conftest import DEMO_TEXT, random_stream, seeded
from test_shared_state import quarter_stream

# denominators of the third kind of stream: near 10**30, and coprime
HUGE = (10**30 + 7, 10**30 - 1)


def integer_stream(rng):
    return random_stream(rng, max_segments=12, horizon=10)


def quarters_stream(rng):
    return quarter_stream(rng, max_segments=12)


def huge_stream(rng):
    """A random stream with every time t mapped to (t + 1/H1) * 3/H0."""
    base = integer_stream(rng)

    def f(t):
        return (t + Q(1, HUGE[1])) * Q(3, HUGE[0])

    presence = {pair: [(f(b), f(e)) for b, e in ivs]
                for pair, ivs in base.presence.items()}
    return LinkStream(f(base.alpha), f(base.omega), base.nodes, presence)


def pair_sum(stream, tv):
    """Betweenness as the sum of every ordered pair's contribution, on the
    user stream itself."""
    total = Q(0)
    for u in stream.nodes:
        lists = latency_lists(stream, u)
        for w in stream.nodes:
            total += contribution(stream, u, w, tv, lists[w]).value
    return total


class TestLattice:
    def test_integer_stream_is_its_own_twin(self):
        stream = LinkStream(0, 10, "ab", {("a", "b"): [(1, 5)]})
        assert stream.lattice() == (stream, 1)

    def test_twin_times_are_ints(self):
        stream = quarter_stream(seeded(9))
        twin, scale = stream.lattice()
        assert scale == 4
        times = [twin.alpha, twin.omega, *twin.event_times()]
        assert all(type(t) is int for t in times)
        assert times == [t * scale for t in
                         [stream.alpha, stream.omega, *stream.event_times()]]
        assert twin.nodes == stream.nodes

    def test_parsed_integer_times_get_an_int_twin(self, demo):
        twin, scale = demo.lattice()
        assert scale == 1 and twin is not demo
        assert all(type(t) is int for t in twin.event_times())

    def test_stream_twin_is_built_once(self):
        stream = parse_stream(DEMO_TEXT)
        twin, _ = stream.lattice()
        betweenness(stream, TemporalNode(Q(9, 2), "c"))
        assert stream.lattice()[0] is twin

    def test_float_times_are_rejected(self, demo):
        with pytest.raises(TypeError, match="exact rational"):
            betweenness(demo, TemporalNode(4.5, "c"))
        ll = latency_lists(demo, "a")["e"]
        queries = [
            lambda: vsp(demo, TemporalNode(1.5, "a"), TemporalNode(Q(14), "e")),
            lambda: vsp(demo, TemporalNode(Q(1), "a"), TemporalNode(14.0, "e")),
            lambda: contribution(demo, "a", "e", TemporalNode(4.5, "c"), ll),
            lambda: cell_ratio(demo, "a", "e", TemporalNode(4.5, "c"), ll,
                               Q(1), Q(14)),
            lambda: latency(demo, TemporalNode(0.5, "a"), "e"),
            lambda: latency(demo, TemporalNode(Q(0), "a"), "e", arrive_by=20.5),
            lambda: reachable(demo, TemporalNode(5.0, "a"), TemporalNode(Q(3), "c")),
            lambda: reachable(demo, TemporalNode(Q(5), "a"), TemporalNode(3.0, "c")),
            lambda: prev_list(demo, "a", "e", 2.0, Q(9), ll),
            lambda: next_list(demo, "a", "e", Q(2), 9.0, ll),
            lambda: demo.graph_at(4.5),
        ]
        for query in queries:
            with pytest.raises(TypeError, match="exact rational"):
                query()
        with pytest.raises(TypeError, match="exact rational"):
            stream = LinkStream(0.0, 10.0, "ab", {("a", "b"): [(1.0, 5.0)]})
            betweenness(stream, TemporalNode(Q(2), "a"))


def query_time(stream, kind, k):
    """The k-th (cyclically) query time of the given kind on the stream."""
    events = stream.event_times()
    span = stream.omega - stream.alpha
    if kind == "alpha":
        return stream.alpha
    if kind == "omega":
        return stream.omega
    if kind == "event":
        return events[k % len(events)] if events else stream.omega
    # thirds and sixths of the window: off the integer and quarter lattices
    return stream.alpha + span * Q(k % 3 + 1, 3) * Q(1, 1 + k % 2)


STREAMS = {"integer": integer_stream, "quarter": quarters_stream,
           "huge": huge_stream}


class TestCrossCheck:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(sorted(STREAMS)),
        seed=st.integers(0, 10**6),
        when=st.sampled_from(["alpha", "omega", "event", "off"]),
        k=st.integers(0, 40),
    )
    def test_betweenness_equals_pair_sum(self, kind, seed, when, k):
        stream = STREAMS[kind](seeded(seed))
        t = query_time(stream, when, k)
        for v in stream.nodes:
            tv = TemporalNode(t, v)
            assert betweenness(stream, tv) == pair_sum(stream, tv)

    def test_huge_denominators_reach_the_twin(self):
        stream = huge_stream(seeded(3))
        _, scale = stream.lattice()
        assert scale % HUGE[0] == 0 and scale > 10**30


def leaves(value):
    """Every scalar inside nested tuples and lists."""
    if isinstance(value, (tuple, list)):
        return chain.from_iterable(leaves(x) for x in value)
    return [value]


class TestIntegerStreams:
    def test_vsp_size_is_exact(self):
        stream = LinkStream(0, 10, "abc",
                            {("a", "b"): [(1, 5)], ("b", "c"): [(3, 8)]})
        res = vsp(stream, TemporalNode(0, "a"), TemporalNode(9, "c"))
        assert res.volume == Volume(18, 2)
        assert type(res.volume.size) is int

    def test_no_output_is_a_float(self):
        stream = LinkStream(0, 10, "abcd", {("a", "b"): [(1, 5)],
                                            ("b", "c"): [(3, 8)],
                                            ("c", "d"): [(9, 10)]})
        got = []
        times = [0, 1, 3, 4, 5, 8, 9, 10, Q(7, 2)]
        for x in times:
            for y in times:
                if x <= y:
                    for u in stream.nodes:
                        for w in stream.nodes:
                            got.append(vsp(stream, TemporalNode(x, u),
                                           TemporalNode(y, w)))
        for t in times:
            for v in stream.nodes:
                tv = TemporalNode(t, v)
                got.append(betweenness(stream, tv))
                for u in stream.nodes:
                    lists = latency_lists(stream, u)
                    for w in stream.nodes:
                        got.append(contribution(stream, u, w, tv, lists[w]))
        got.append(profile(stream, 7).samples)
        values = list(leaves(got))
        assert values and not any(isinstance(x, float) for x in values)
        assert betweenness(stream, TemporalNode(Q(17, 2), "c")) > 0


# -- degenerate windows ---------------------------------------------------
#
# Values recorded from the pipeline before it ran on the integer twin.

POINT = "7/4 7/4\na b 7/4 7/4\nb c 7/4 7/4\n"
ZERO = "0 10\na b 2 2\nb c 2 2\nc d 5 5\na c 7 7\n"

ZERO_NONZERO = {
    (Q(2), "a"): Q(62), (Q(2), "b"): Q(104), (Q(2), "c"): Q(72),
    (Q(5), "c"): Q(85), (Q(5), "d"): Q(85),
    (Q(7), "a"): Q(57), (Q(7), "c"): Q(57),
    (Q(5, 2), "c"): Q(20),
}


class TestDegenerateWindows:
    def test_point_window(self):
        stream = parse_stream(POINT)
        for v in stream.nodes:
            assert betweenness(stream, TemporalNode(Q(7, 4), v)) == 0
        prof = profile(stream, 3)
        assert len(prof.samples) == 3 * 4
        assert all(tv.time == Q(7, 4) and value == 0
                   for tv, value in prof.samples)

    def test_zero_length_intervals_only(self):
        stream = parse_stream(ZERO)
        for t in (0, Q(5, 2), 2, 5, 7, 10):
            for v in stream.nodes:
                tv = TemporalNode(Q(t), v)
                assert betweenness(stream, tv) == ZERO_NONZERO.get(tv, 0), tv
        prof = profile(stream, 4)
        assert [(tv.time, tv.node) for tv, value in prof.samples if value] == [
            (Q(5, 2), "c"), (Q(5), "c"), (Q(5), "d")
        ]
        assert all(value == ZERO_NONZERO.get(tv, 0) for tv, value in prof.samples)

    @pytest.mark.parametrize("text,argv,printed", [
        (POINT, ["betweenness", "--at", "7/4", "b"], "0\n"),
        (POINT, ["betweenness", "--at", "7/4", "b", "--verify"], "0\n"),
        (POINT, ["profile", "--samples", "1"], "a 7/4 0\na 7/4 0\n"
         "b 7/4 0\nb 7/4 0\nc 7/4 0\nc 7/4 0\n"),
        (ZERO, ["betweenness", "--at", "2", "b", "--verify"], "104\n"),
        (ZERO, ["profile", "--samples", "2"], "a 0 0\na 5 0\na 10 0\n"
         "b 0 0\nb 5 0\nb 10 0\nc 0 0\nc 5 85\nc 10 0\nd 0 0\nd 5 85\nd 10 0\n"),
    ])
    def test_cli(self, tmp_path, capsys, text, argv, printed):
        path = tmp_path / "s.ls"
        path.write_text(text, encoding="utf-8")
        code = cli.run([argv[0], "--stream", str(path), *argv[1:]])
        assert (code, capsys.readouterr().out) == (0, printed)
