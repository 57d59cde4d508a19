from fractions import Fraction

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
    parse_stream,
    parse_time,
)

from conftest import DEMO_TEXT, random_stream, seeded


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

    def test_node_line_declares_node(self):
        stream = parse_stream("0 10\nq\na b 1 2\n")
        assert stream.nodes == ("a", "b", "q")
        assert stream.segment_count() == 1
        with pytest.raises(StreamError, match="line 2"):
            parse_stream("0 10\na b 1\n")


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
        assert demo.scale([Q(1, 3)]) == 3
        assert demo.scale() == 1
        quarters = LinkStream(Q(0), Q(10), "ab", {("a", "b"): [(Q(1, 4), Q(3, 2))]})
        assert quarters.scale() == 4
        assert quarters.scale([Q(1, 3), Q(5, 6)]) == 12
        assert quarters.scale([Q(7), 2]) == 4


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

    def test_check_temporal_node(self, demo):
        demo.check_temporal_node(TemporalNode(Q(0), "a"))
        with pytest.raises(StreamError):
            demo.check_temporal_node(TemporalNode(Q(0), "z"))
        with pytest.raises(StreamError):
            demo.check_temporal_node(TemporalNode(Q(-1), "a"))

    def test_window_may_exceed_link_bounds(self):
        stream = parse_stream("-5 50\na b 1 2\n")
        assert stream.alpha == -5 and stream.omega == 50
