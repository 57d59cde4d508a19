from bisect import bisect_left
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from linkstream import (
    IntervalSet,
    LinkStream,
    Q,
    StreamError,
    TemporalNode,
    betweenness,
    format_decimal,
    latency,
    parse_stream,
    parse_time,
    vsp,
)
from linkstream.numbers import on_lattice
from linkstream.shortest_volumes import SweepTables, sweep_tables

from conftest import DEMO_TEXT, random_stream, seeded
from test_lattice import huge_stream, integer_stream, quarters_stream
from test_shared_state import int_times



def int_stream(rng):
    return int_times(integer_stream(rng))


SLOT_STREAMS = {"int": int_stream, "integer": integer_stream,
                "quarter": quarters_stream, "huge": huge_stream}


def edge_set(graph):
    return {tuple(sorted(e)) for e in graph.edges}


class TestParseTime:
    def test_decimal_and_rational_literals(self):
        assert parse_time("12") == 12
        assert parse_time("4.5") == Q(9, 2)
        assert parse_time("9/2") == Q(9, 2)
        assert parse_time("-0.25") == Q(-1, 4)

    @pytest.mark.parametrize("text", [
        "0", "12", "+12", "-12", "12.", "-12.", ".5", "+.5", "-.5", "4.50",
        "-0.25", "007.0700", "0/5", "-3/6", "+9/2", "10/4", " 7/8 ",
    ])
    def test_equals_fraction_of_the_text(self, text):
        value = parse_time(text)
        assert type(value) is Fraction and value == Fraction(text)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.from_regex(r"[+-]?([0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20}"
                         r"|[0-9]{1,20}/0{0,2}[1-9][0-9]{0,5})", fullmatch=True))
    def test_equals_fraction_of_drawn_literals(self, text):
        assert parse_time(text) == Fraction(text)

    def test_rejects_garbage(self):
        for bad in ["", "x", "1.2.3", "1/0x", "nan", "1e3"]:
            with pytest.raises(ValueError):
                parse_time(bad)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_time("1/0")
        with pytest.raises(StreamError, match="line 1"):
            parse_stream("0 1/0\na b 0 1\n")

    @pytest.mark.parametrize("bad", [
        "+", ".", "+.", "1/", "/2", "1./2", "1.5/2", "--1", "1e3", "1_000",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="invalid time literal"):
            parse_time(bad)

    @pytest.mark.parametrize("bad", ["3/0", "-2/00", "+0/0"])
    def test_rejects_any_zero_denominator(self, bad):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_time(bad)


class TestFormatDecimal:
    def test_rounds_half_away_from_zero(self):
        assert format_decimal(Q(81, 2), 0) == "41"
        assert format_decimal(Q(-1, 8), 2) == "-0.13"
        assert format_decimal(Q(1, 3), 3) == "0.333"

    def test_rejects_negative_digits(self):
        with pytest.raises(ValueError):
            format_decimal(Q(1, 2), -1)


class TestIntervalSet:
    def test_merges_overlapping_and_touching(self):
        ivs = IntervalSet([(Q(1), Q(3)), (Q(2), Q(5)), (Q(5), Q(6))])
        assert list(ivs) == [(Q(1), Q(6))]

    def test_rejects_reversed_bounds(self):
        with pytest.raises(StreamError):
            IntervalSet([(Q(3), Q(1))])

    def test_membership_closed(self):
        ivs = IntervalSet([(Q(1), Q(2)), (Q(4), Q(4))])
        assert Q(1) in ivs and Q(2) in ivs and Q(4) in ivs
        assert Q(3) not in ivs and Q(9, 2) not in ivs


class TestParseStream:
    def test_demo_segment_count(self, demo):
        assert demo.segment_count() == 16

    def test_empty_stream(self):
        stream = parse_stream("0 10\n")
        assert stream.presence == {}
        assert stream.event_times() == []

    def test_merge_across_lines(self):
        stream = parse_stream("0 10\na b 1 3\na b 2 5\n")
        assert list(stream.presence[("a", "b")]) == [(Q(1), Q(5))]

    def test_comments_and_blank_lines(self):
        stream = parse_stream("# header\n0 10\n\na b 1 2 # tail\n")
        assert list(stream.presence[("a", "b")]) == [(Q(1), Q(2))]

    def test_errors_are_line_numbered(self):
        with pytest.raises(StreamError, match="line 2"):
            parse_stream("0 10\na b 3 1\n")
        with pytest.raises(StreamError, match="line 2"):
            parse_stream("0 10\na a 1 2\n")
        with pytest.raises(StreamError, match="line 2"):
            parse_stream("0 10\na b one 2\n")
        with pytest.raises(StreamError, match="line 2"):
            parse_stream("0 10\na b 5 12\n")  # outside the window
        with pytest.raises(StreamError, match="header"):
            parse_stream("# nothing\n")

    @pytest.mark.parametrize("text,lineno", [
        ("10 0\na b 1 2\n", 1),
        ("# one\n\n# two\n10 0\na b 1 2\n", 4),
        ("10 0\n", 1),
    ])
    def test_header_alpha_after_omega(self, text, lineno):
        with pytest.raises(StreamError) as info:
            parse_stream(text)
        assert str(info.value) == "line %d: alpha > omega" % lineno

    def test_roundtrip_identity(self, demo):
        text = demo.serialize()
        again = parse_stream(text)
        assert again.serialize() == text
        assert again.presence == demo.presence
        assert (again.alpha, again.omega) == (demo.alpha, demo.omega)

    def test_roundtrip_keeps_isolated_nodes(self):
        stream = LinkStream(
            Q(0), Q(10), ["a", "b", "x"], {("a", "b"): [(Q(1), Q(9))]}
        )
        text = stream.serialize()
        assert text.splitlines()[-1] == "x"
        again = parse_stream(text)
        assert again.nodes == ("a", "b", "x")
        assert again.serialize() == text
        assert betweenness(again, TemporalNode(Q(5), "x")) == 0

    def test_link_on_unknown_node_rejected(self):
        with pytest.raises(StreamError, match="unknown node"):
            LinkStream(Q(0), Q(10), ["a", "b"], {("a", "z"): [(Q(1), Q(2))]})

    def test_both_orders_of_a_pair_merge(self):
        stream = LinkStream(Q(0), Q(10), ["a", "b"],
                            {("a", "b"): [(Q(1), Q(3))],
                             ("b", "a"): [(Q(2), Q(5)), (Q(7), Q(8))]})
        assert list(stream.presence) == [("a", "b")]
        assert list(stream.presence[("a", "b")]) == [(Q(1), Q(5)),
                                                     (Q(7), Q(8))]

    def test_node_line_declares_node(self):
        stream = parse_stream("0 10\nq\na b 1 2\n")
        assert stream.nodes == ("a", "b", "q")
        assert stream.segment_count() == 1
        with pytest.raises(StreamError, match="line 2"):
            parse_stream("0 10\na b 1\n")


def reference_parse(text):
    """(parts, twin parts, L) of `text`, as `typed_parts` gives them, found
    without ticks and without `LinkStream(...)`: the `parse_time` value of
    every literal, the intervals of each pair merged by an IntervalSet over
    those Fractions, L the lcm of the denominators of the window ends and
    the merged bounds, and the twin the `on_lattice` image of those times.
    Reads well-formed text only."""
    header, nodes, raw = None, set(), {}
    for line in text.splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if header is None:
            header = [parse_time(f) for f in fields]
        elif len(fields) == 1:
            nodes.add(fields[0])
        else:
            u, v, b, e = fields
            nodes.update((u, v))
            key = (u, v) if u < v else (v, u)
            raw.setdefault(key, []).append((parse_time(b), parse_time(e)))
    presence = {key: list(IntervalSet(ivs)) for key, ivs in raw.items()}
    events = sorted({t for ivs in presence.values() for iv in ivs for t in iv})
    scale = lcm(*(t.denominator for t in (*header, *events)))
    parts = (*header, sorted(nodes), presence, events)
    return typed(*parts), lattice_image(*parts, scale), scale


def lattice_image(alpha, omega, nodes, presence, events, scale):
    """`typed` parts of a stream's times mapped by `on_lattice` to ticks of
    1/scale."""
    def tick(t):
        return on_lattice(t, scale)

    return typed(tick(alpha), tick(omega), nodes,
                 {pair: [(tick(b), tick(e)) for b, e in ivs]
                  for pair, ivs in presence.items()},
                 map(tick, events))


def typed(alpha, omega, nodes, presence, events):
    """Every part of a stream, each time with its type, presence in
    insertion order."""
    def time(t):
        return type(t).__name__, t

    return (time(alpha), time(omega), tuple(nodes),
            [(pair, [(time(b), time(e)) for b, e in ivs])
             for pair, ivs in presence.items()],
            [time(t) for t in events])


def typed_parts(stream):
    """`typed` parts of the stream: every field a parse fills."""
    return typed(stream.alpha, stream.omega, stream.nodes, stream.presence,
                 stream.event_times())


def spellings(q):
    """Literals that all parse to the rational q: p/q reduced and not,
    signed, and, where they are exact, integer and decimal forms."""
    n, d = q.numerator, q.denominator
    forms = ["%d/%d" % (n, d), "%d/%d" % (3 * n, 3 * d)]
    if n >= 0:
        forms.append("+%d/%d" % (n, d))
    if d == 1:
        forms += [str(n), "%d.0" % n, "%d." % n]
    for digits in range(1, 7):
        if 10 ** digits % d == 0:
            scaled = abs(n) * 10 ** digits // d
            sign = "-" if n < 0 else ""
            forms.append("%s%d.%0*d" % (sign, scaled // 10 ** digits, digits,
                                        scaled % 10 ** digits))
            break
    return forms


DENOMINATORS = (1, 1, 2, 4, 5, 3, 10, 999983, 2 ** 61 - 1)


@st.composite
def stream_texts(draw):
    """Well-formed stream text: a few rationals, each written in drawn
    spellings, as the window and as interval bounds on pairs of at most
    four nodes (so repeated and touching bounds are frequent), with node
    lines, comments and blank lines mixed in."""
    values = sorted(set(draw(st.lists(
        st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS)),
        min_size=1, max_size=7))))

    def lit(q):
        return draw(st.sampled_from(spellings(q)))

    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["", "# a comment", "   "])))
    lines.append("%s %s" % (lit(values[0]), lit(values[-1])))
    names = st.sampled_from("abcd")
    index = st.integers(0, len(values) - 1)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(names))
        elif kind == 1:
            lines.append(draw(st.sampled_from(["", "# note", "  # x y 1 2"])))
        else:
            u, v = draw(st.lists(names, min_size=2, max_size=2, unique=True))
            i, j = sorted((draw(index), draw(index)))
            line = "%s %s %s %s" % (u, v, lit(values[i]), lit(values[j]))
            lines.append(line + draw(st.sampled_from(["", " # tail"])))
    return "\n".join(lines) + "\n"


class TestParseOnTicks:
    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(stream_texts())
    def test_matches_reference_parse(self, text):
        stream = parse_stream(text)
        ref, ref_twin, scale = reference_parse(text)
        assert typed_parts(stream) == ref
        twin, twin_scale = stream.lattice()
        assert twin_scale == scale == stream.scale()
        assert twin is not stream
        assert typed_parts(twin) == ref_twin

    def test_twin_is_built_at_parse_time(self):
        stream = parse_stream("0 10\na b 1/4 3\nb c 0.5 7\n")
        assert stream._twin is not None and stream._scale == 4
        assert stream.lattice() == (stream._twin, 4)

    def test_merged_away_denominator_is_divided_out_of_the_twin(self):
        # 1/3 is inside [0, 5] on the same pair: no time of the stream
        # needs thirds, so its own L is 1, not the literals' 3
        text = "0 10\na b 0 5\na b 1/3 2\n"
        stream = parse_stream(text)
        assert stream._twin is not None and stream._twin is not stream
        assert stream._scale == stream.scale() == 1
        ref, ref_twin, _ = reference_parse(text)
        assert stream.lattice() == (stream._twin, 1)
        assert typed_parts(stream._twin) == ref_twin

    def test_one_value_written_several_ways(self):
        stream = parse_stream("0 10\na b 0.5 1\nc d 1/2 2/2\ne f +2/4 1.0\n")
        assert stream.event_times() == [Q(1, 2), Q(1)]
        assert all(type(t) is Fraction for t in stream.event_times())
        assert stream.lattice()[0].event_times() == [1, 2]

    @pytest.mark.parametrize("text,message", [
        ("0 10\na b 3 1\n", "line 2: interval with b > e"),
        ("0 10\na a 1 2\n", "line 2: self-link on node 'a'"),
        ("0 10\na b one 2\n", "line 2: invalid time literal: 'one'"),
        ("0 10\na b 1/0 2\n", "line 2: zero denominator in time literal: '1/0'"),
        ("0 10\na b 5 12\n", "line 2: interval [5, 12] outside [0, 10]"),
        ("0 10\na b -1/2 1\n", "line 2: interval [-1/2, 1] outside [0, 10]"),
        ("0 10\na b 1\n", "line 2: expected `u v b e` or `u`"),
        ("0 10\na b 1 2 3\n", "line 2: expected `u v b e` or `u`"),
        ("# nothing\n", "missing `alpha omega` header line"),
        ("", "missing `alpha omega` header line"),
        ("0\n", "line 1: expected `alpha omega`"),
        ("# c\n0 1 2\n", "line 2: expected `alpha omega`"),
        ("0 1/0\n", "line 1: zero denominator in time literal: '1/0'"),
        ("x 1\n", "line 1: invalid time literal: 'x'"),
        ("10 0\n", "line 1: alpha > omega"),
        ("0 10 # w\n\n# c\na b 11/2 12\n",
         "line 4: interval [11/2, 12] outside [0, 10]"),
        # with several bad lines, the first in file order is reported,
        # whichever check each fails
        ("10 0\na b x y\n", "line 1: alpha > omega"),
        ("0 10\na b 3 1\na b x 2\n", "line 2: interval with b > e"),
        ("0 10\na b x 2\na b 3 1\n", "line 2: invalid time literal: 'x'"),
        ("0 10\nc d 1 2\na b 5 12\na a 1 2\n",
         "line 3: interval [5, 12] outside [0, 10]"),
        ("0 10\na b 1 2\na b 1\na b 9 3\n", "line 3: expected `u v b e` or `u`"),
        ("0 10\na b 2 3\nc d 3 2\n", "line 3: interval with b > e"),
        ("0 10\na b 1/3 x\na b 2 1\n", "line 2: invalid time literal: 'x'"),
        ("0 10\na b 1/3 1\nc d 7 6\ne e 1 2\n", "line 3: interval with b > e"),
        ("0 10\na b 1 2\nq\nc d 1/7 11\nc c 1 2\n",
         "line 4: interval [1/7, 11] outside [0, 10]"),
    ])
    def test_bad_input(self, text, message):
        with pytest.raises(StreamError) as info:
            parse_stream(text)
        assert str(info.value) == message


def rebuilt(stream, rng):
    """Arguments of `LinkStream(...)` that give `stream` again: its nodes
    repeated and out of order, and each interval of a pair repeated, cut
    into two touching parts or given with a zero-length copy of one end,
    spread over one or both orders of the pair, each a list or an
    IntervalSet.  The pairs come in sorted order, as in a parse.  A cut of
    a Fraction interval may need a denominator that no time of the stream
    needs: merging drops it."""
    presence = {}
    for u, v in sorted(stream.presence):
        pieces = []
        for b, e in stream.presence[(u, v)]:
            cut = b + (e - b) // 2 if type(b) is int else (b + e) / 2
            pieces += rng.choice([[(b, e)], [(b, e), (b, e)],
                                  [(b, cut), (cut, e)], [(e, e), (b, e)]])
        rng.shuffle(pieces)
        orders = [(u, v), (v, u)]
        rng.shuffle(orders)
        split = rng.randint(0, len(pieces))
        for pair, part in zip(orders, (pieces[:split], pieces[split:])):
            if part or rng.random() < 0.5:
                presence[pair] = rng.choice([list, IntervalSet])(part)
    nodes = list(stream.nodes) * 2
    rng.shuffle(nodes)
    return stream.alpha, stream.omega, nodes, presence


class TestOneBuild:
    """`LinkStream(...)` and `parse_stream` build a stream and its twin by
    one routine: the two doors give the same typed parts, and `lattice()`
    finds the twin built."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(SLOT_STREAMS)),
           seed=st.integers(0, 10**6))
    def test_both_doors_build_the_same_stream_and_twin(self, kind, seed):
        rng = seeded(seed)
        stream = LinkStream(*rebuilt(SLOT_STREAMS[kind](rng), rng))
        parsed = parse_stream(stream.serialize())
        parsed_twin, scale = parsed.lattice()
        built = []
        of_parts = LinkStream._of_parts.__func__

        def counted(cls, *parts):
            built.append(parts)
            return of_parts(cls, *parts)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LinkStream, "_of_parts", classmethod(counted))
            twin, own = stream.lattice()
        assert not built
        # an int stream is its own twin; a parse gives Fractions
        assert (twin is stream) == (kind == "int")
        assert typed_parts(stream) == typed_parts(
            parsed_twin if kind == "int" else parsed)
        assert own == scale and typed_parts(twin) == typed_parts(parsed_twin)


class TestEventTimes:
    def test_demo_event_times(self, demo):
        expected = [1, 2, 3, 5, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18,
                    19, 22, 23, 24, 25, 27, 28, 29, 30, 31]
        assert demo.event_times() == [Q(t) for t in expected]

    def test_singleton_link(self):
        stream = parse_stream("0 10\na b 4 4\n")
        assert stream.event_times() == [Q(4)]

    def test_bounded_by_twice_segments(self, demo):
        assert len(demo.event_times()) <= 2 * demo.segment_count()


class TestGraphAt:
    def test_demo_snapshots(self, demo):
        assert edge_set(demo.graph_at(Q(4))) == {("b", "c")}
        assert edge_set(demo.graph_at(Q(16))) == {("a", "b"), ("d", "e")}
        assert edge_set(demo.graph_at(Q(10))) == {("d", "e")}

    def test_no_links_instant(self, demo):
        assert edge_set(demo.graph_at(Q(0))) == set()

    def test_out_of_window(self, demo):
        with pytest.raises(StreamError):
            demo.graph_at(Q(33))

    def test_constant_between_event_times(self, demo):
        ev = demo.event_times()
        for t, t2 in zip(ev, ev[1:]):
            g1 = demo.graph_at(t + (t2 - t) / 3)
            g2 = demo.graph_at(t + (t2 - t) * 2 / 3)
            assert edge_set(g1) == edge_set(g2)


def reference_slot(stream, t):
    """The slot of t by a bisect of the stream's own event times."""
    ev = stream.event_times()
    i = bisect_left(ev, t)
    return 2 * i + 1 if i < len(ev) and ev[i] == t else 2 * i


def probe_times(stream):
    """Window ends, event times, the halves and thirds of every gap, and
    times a tiny step (1/10**40) to either side of each of those."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    times = set(bounds)
    for a, b in zip(bounds, bounds[1:]):
        span = Q(b - a)
        times.update((a + span / 2, a + span / 3, b - span / 3))
    tiny = Q(1, 10**40)
    times.update([t + d for t in list(times) for d in (tiny, -tiny)])
    return sorted(t for t in times if stream.alpha <= t <= stream.omega)


class TestSlotOnTicks:
    """A time is placed among the stream's int event ticks, with or without
    a twin; the reference compares it with the stream's own event times."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(SLOT_STREAMS)),
           seed=st.integers(0, 10**6), parsed=st.booleans())
    def test_matches_reference_bisect(self, kind, seed, parsed):
        stream = SLOT_STREAMS[kind](seeded(seed))
        if parsed:
            stream = parse_stream(stream.serialize())
        for t in probe_times(stream):
            assert stream.slot(t) == reference_slot(stream, t), t

    def test_int_time_on_a_fraction_stream(self, demo):
        for t in range(33):
            assert demo.slot(t) == reference_slot(demo, Q(t))

    def test_float_time_rejected(self, demo):
        with pytest.raises(TypeError,
                           match=r"cannot convert 2\.0 to an exact rational"):
            demo.slot(2.0)


class TestWindowOnTicks:
    """The window check compares ticks; the reference compares the times
    themselves as Fractions, within 1/10**40 of both window ends."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(SLOT_STREAMS)),
           seed=st.integers(0, 10**6), parsed=st.booleans())
    def test_raises_exactly_outside_the_window(self, kind, seed, parsed):
        stream = SLOT_STREAMS[kind](seeded(seed))
        if parsed:
            stream = parse_stream(stream.serialize())
        node = stream.nodes[0]
        steps = (0, Q(1, 10**40), Q(1, 3 * 10**40), Q(1, 4), 1)
        for end in (stream.alpha, stream.omega):
            for t in {end + d for d in steps} | {end - d for d in steps}:
                outside = Q(t) < Q(stream.alpha) or Q(t) > Q(stream.omega)
                for check in (stream.graph_at, lambda t: (
                        stream.check_temporal_node(TemporalNode(t, node)))):
                    if outside:
                        with pytest.raises(StreamError, match="outside"):
                            check(t)
                    else:
                        check(t)

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(SLOT_STREAMS)),
           seed=st.integers(0, 10**6), parsed=st.booleans())
    def test_every_entry_point_rejects_a_time_outside(self, kind, seed,
                                                       parsed):
        """Half a tick, and 1/10**40, outside either window end: every
        routine that takes a time rejects it."""
        stream = SLOT_STREAMS[kind](seeded(seed))
        if parsed:
            stream = parse_stream(stream.serialize())
        u, v = stream.nodes[0], stream.nodes[-1]
        first = TemporalNode(stream.alpha, u)
        last = TemporalNode(stream.omega, v)
        tables = sweep_tables(stream, *first)
        for eps in (Q(1, 2 * stream.scale()), Q(1, 10**40)):
            for t in (stream.alpha - eps, stream.omega + eps):
                tv = TemporalNode(t, u)
                for call, *args in (
                        (stream.slot, t), (stream.gap, t, True),
                        (stream.gap, t, False), (stream.graph_at, t),
                        (stream.check_temporal_node, tv),
                        (SweepTables, stream, t, u),
                        (tables.state_at, t, stream),
                        (latency, stream, tv, v),
                        (latency, stream, first, v, t),
                        (vsp, stream, first, TemporalNode(t, v)),
                        (vsp, stream, tv, last), (betweenness, stream, tv)):
                    with pytest.raises(StreamError, match="outside"):
                        call(*args)

    def test_graph_at_ticks_once(self, demo, monkeypatch):
        calls = []
        tick_bounds = LinkStream._tick_bounds

        def counted(stream, t):
            calls.append(t)
            return tick_bounds(stream, t)

        monkeypatch.setattr(LinkStream, "_tick_bounds", counted)
        for t in (Q(0), Q(16), Q(33, 2), Q(32)):
            calls.clear()
            demo.graph_at(t)
            assert calls == [t]


class TestGap:
    def test_demo_gaps(self, demo):
        assert edge_set(demo.snapshot(demo.gap(Q(3), True))) == {("b", "c")}
        assert edge_set(demo.snapshot(demo.gap(Q(8), False))) == set()
        assert edge_set(demo.snapshot(demo.gap(Q(27), True))) == {
            ("b", "c"), ("c", "d")
        }

    def test_gaps_around_an_event_time(self, demo):
        for t in demo.event_times():
            k = demo.slot(t)
            assert demo.gap(t, True) == k + 1
            assert demo.gap(t, False) == k - 1

    def test_off_event_time_is_in_its_gap(self, demo):
        for t in (Q(4), Q(9, 2), Q(1, 3), Q(63, 2)):
            assert demo.gap(t, True) == demo.gap(t, False) == demo.slot(t)

    def test_float_time_rejected(self, demo):
        # at the window ends too, where no gap lies beyond t
        for t, forward in [(2.0, True), (32.0, True), (0.0, False)]:
            with pytest.raises(TypeError, match="cannot convert %r to an "
                               "exact rational" % t):
                demo.gap(t, forward)

    def test_none_beyond_the_window(self, demo):
        assert demo.gap(demo.alpha, False) is None
        assert demo.gap(demo.omega, True) is None
        assert demo.gap(demo.alpha, True) == 0
        stream = LinkStream(Q(0), Q(5), "ab", {("a", "b"): [(Q(0), Q(5))]})
        assert stream.gap(Q(0), False) is None
        assert stream.gap(Q(5), True) is None
        assert stream.gap(Q(0), True) == stream.gap(Q(5), False) == 2

    def test_agrees_with_slot_of_gap_midpoints(self):
        rng = seeded(1212)
        for _ in range(20):
            stream = random_stream(rng)
            bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
            for t, t2 in zip(bounds, bounds[1:]):
                k = stream.slot((t + t2) / 2)
                assert stream.gap(t, True) == k == stream.gap(t2, False), (
                    stream.serialize(), t, t2
                )

    def test_scale(self, demo):
        assert demo.scale() == 1
        quarters = LinkStream(Q(0), Q(10), "ab", {("a", "b"): [(Q(1, 4), Q(3, 2))]})
        assert quarters.scale() == 4


class TestLinkStreamValidation:
    def test_self_link_rejected(self):
        with pytest.raises(StreamError):
            LinkStream(Q(0), Q(5), ["a"], {("a", "a"): [(Q(1), Q(2))]})

    def test_interval_outside_window_rejected(self):
        with pytest.raises(StreamError):
            LinkStream(Q(0), Q(5), ["a", "b"], {("a", "b"): [(Q(1), Q(6))]})

    def test_alpha_after_omega_rejected(self):
        with pytest.raises(StreamError):
            LinkStream(Q(5), Q(0), [], {})

    @pytest.mark.parametrize("alpha,omega,bounds", [
        (0.0, Q(10), (Q(1), Q(5))),
        (Q(0), 10.0, (Q(1), Q(5))),
        (Q(0), Q(10), (1.0, Q(5))),
        (0, 10, (1, 5.5)),
    ])
    def test_float_time_rejected(self, alpha, omega, bounds):
        with pytest.raises(TypeError, match="cannot convert .* to an exact "
                                            "rational"):
            LinkStream(alpha, omega, "ab", {("a", "b"): [bounds]})

    @pytest.mark.parametrize("args,error,message", [
        # a float time first, also one equal to an int given before it
        ((Q(5), Q(0), "a", {("a", "a"): [(Q(1), 2.0)]}), TypeError,
         "cannot convert 2.0 to an exact rational"),
        ((0, 5, "ab", {("a", "b"): [(1, 1.0)]}), TypeError,
         "cannot convert 1.0 to an exact rational"),
        # then the pairs, in order, before alpha > omega
        ((5, 0, "ab", {("a", "b"): [(3, 1)], ("a", "a"): [(1, 2)]}),
         StreamError, "self-link on node 'a'"),
        ((5, 0, "ab", {("b", "z"): [(3, 1)], ("a", "a"): [(1, 2)]}),
         StreamError, "link on unknown node in pair ('b', 'z')"),
        ((5, 0, "ab", {("a", "b"): [(3, 1)]}), StreamError, "alpha > omega"),
        # then parse_stream's checks per interval, in order, led by the
        # pair as given
        ((0, 5, "ab", {("a", "b"): [(1, 6)]}), StreamError,
         "pair ('a', 'b'): interval [1, 6] outside [0, 5]"),
        ((Q(0), Q(10), "ab", {("b", "a"): [(Q(-1, 2), Q(1))]}), StreamError,
         "pair ('b', 'a'): interval [-1/2, 1] outside [0, 10]"),
        ((0, 5, "ab", {("b", "a"): [(3, 1)]}), StreamError,
         "pair ('b', 'a'): interval with b > e"),
        ((0, 5, "abc", {("a", "b"): [(1, 2), (4, 3)], ("a", "c"): [(1, 9)]}),
         StreamError, "pair ('a', 'b'): interval with b > e"),
        ((0, 5, "abc", {("a", "c"): [(1, 2), (1, 9)], ("a", "b"): [(4, 3)]}),
         StreamError, "pair ('a', 'c'): interval [1, 9] outside [0, 5]"),
    ])
    def test_diagnostics_and_their_order(self, args, error, message):
        with pytest.raises(error) as info:
            LinkStream(*args)
        assert type(info.value) is error and str(info.value) == message

    def test_check_temporal_node(self, demo):
        demo.check_temporal_node(TemporalNode(Q(0), "a"))
        with pytest.raises(StreamError):
            demo.check_temporal_node(TemporalNode(Q(0), "z"))
        with pytest.raises(StreamError):
            demo.check_temporal_node(TemporalNode(Q(-1), "a"))

    def test_window_may_exceed_link_bounds(self):
        stream = parse_stream("-5 50\na b 1 2\n")
        assert stream.alpha == -5 and stream.omega == 50
