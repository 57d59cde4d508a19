import importlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from linkstream import (
    BoundaryList,
    LatencyList,
    Q,
    StreamError,
    TemporalNode,
    V_ZERO,
    Volume,
    VolumeError,
    VspResult,
    betweenness,
    cell_ratio,
    contribution,
    latency_lists,
    next_list,
    parse_stream,
    prev_list,
    reachable,
    vol_add,
    vol_div,
    vol_mul,
    vsp,
)

from conftest import DEMO_TEXT, random_stream, relay_stream, seeded
from test_lattice import huge_stream, integer_stream, quarters_stream
from test_lazy import fresh, ticks
from test_shared_state import quarter_stream


def tn(t, v):
    return TemporalNode(Q(t) if not isinstance(t, str) else Q(*map(int, t.split("/"))), v)


@pytest.fixture(scope="module")
def ll_ae(demo):
    return latency_lists(demo, "a")["e"]


class TestBoundaryLists:
    def test_prev_list_anchor_9_16(self, demo, ll_ae):
        lst = prev_list(demo, "a", "e", Q(9), Q(16), ll_ae)
        assert [(b, v) for b, v in lst.entries] == [
            (Q(2), V_ZERO),
            (Q(0), Volume(Q(2), 2)),
        ]

    def test_next_list_anchor_9_16(self, demo, ll_ae):
        lst = next_list(demo, "a", "e", Q(9), Q(16), ll_ae)
        assert [(b, v) for b, v in lst.entries] == [
            (Q(23), V_ZERO),
            (Q(30), Volume(Q(1), 0)),
        ]

    def test_prev_list_first_pair_falls_back_to_alpha(self, demo, ll_ae):
        lst = prev_list(demo, "a", "e", Q(2), Q(9), ll_ae)
        assert [(b, v) for b, v in lst.entries] == [(Q(0), V_ZERO)]

    def test_next_list_last_pair_falls_back_to_omega(self, demo, ll_ae):
        lst = next_list(demo, "a", "e", Q(24), Q(30), ll_ae)
        assert [(b, v) for b, v in lst.entries] == [(Q(32), V_ZERO)]

    def test_boundaries_monotone_and_first_volume_zero(self, demo):
        for u in demo.nodes:
            lists = latency_lists(demo, u)
            for w in demo.nodes:
                for s, a in lists[w]:
                    prev = prev_list(demo, u, w, s, a, lists[w])
                    nxt = next_list(demo, u, w, s, a, lists[w])
                    if prev.entries:
                        assert prev.entries[0][1] == V_ZERO
                        bs = [b for b, _ in prev.entries]
                        assert bs == sorted(bs, reverse=True) or len(bs) == 1
                        assert all(x > y for x, y in zip(bs, bs[1:]))
                    if nxt.entries:
                        assert nxt.entries[0][1] == V_ZERO
                        bs = [b for b, _ in nxt.entries]
                        assert all(x < y for x, y in zip(bs, bs[1:]))

    def test_next_list_mirrors_prev_list_of_reversed_stream(self, demo):
        # reverse every interval about the window midpoint and compare the
        # forward scan with the backward scan of the mirrored stream
        span = demo.alpha + demo.omega
        lines = ["%s %s" % (demo.alpha, demo.omega)]
        for (u, v), ivs in sorted(demo.presence.items()):
            for b, e in ivs:
                lines.append("%s %s %s %s" % (u, v, span - e, span - b))
        mirrored = parse_stream("\n".join(lines) + "\n")
        ll = latency_lists(demo, "a")["e"]
        ll_m = latency_lists(mirrored, "e")["a"]
        for s, a in ll:
            nxt = next_list(demo, "a", "e", s, a, ll)
            prev_m = prev_list(mirrored, "e", "a", span - a, span - s, ll_m)
            assert [
                (span - b, v.dim if not v.is_zero() else None)
                for b, v in nxt.entries
            ] == [
                (b, v.dim if not v.is_zero() else None)
                for b, v in prev_m.entries
            ]
            assert [v.size for _, v in nxt.entries] == [
                v.size for _, v in prev_m.entries
            ]

    def test_non_latency_pair_rejected(self, demo, ll_ae):
        # (2,10) and (1,9) are reachable, but the list is (2,9), (9,16), ...;
        # a is joined to c at 17/2 (link 8..9), off the event times, but
        # not to e
        t = Q(17, 2)
        for scan in (prev_list, next_list):
            for s, a in [(Q(3), Q(10)), (Q(2), Q(10)), (Q(1), Q(9)), (t, t)]:
                with pytest.raises(StreamError, match="not a latency pair"):
                    scan(demo, "a", "e", s, a, ll_ae)
        # the instantaneous pair is accepted; the gap around 17/2 keeps the
        # distance on both sides, so neither scan passes a boundary
        ll = latency_lists(demo, "a")["c"]
        assert (t, t) not in list(ll)
        for scan in (prev_list, next_list):
            assert scan(demo, "a", "c", t, t, ll).entries == []

    def test_float_anchor_rejected(self, demo):
        # with d_anchor given, an instantaneous anchor is placed among the
        # gaps before anything else checks its time, at the window ends too
        ll = latency_lists(demo, "a")["b"]
        for scan, t in [(prev_list, 2.0), (next_list, 2.0), (prev_list, 0.0),
                        (next_list, 32.0)]:
            with pytest.raises(TypeError, match="cannot convert %r to an "
                               "exact rational" % t):
                scan(demo, "a", "b", t, t, ll, d_anchor=1)


class TestCellRatio:
    CASES = [
        ((Q(9, 2), "c"), Q(3, 4)),
        ((Q(8), "d"), Q(1)),
        ((Q(15, 2), "c"), Q(0)),
        ((Q(10), "b"), Q(0)),
        ((Q(10), "c"), Q(0)),
        ((Q(14), "d"), Q(0)),
    ]

    @pytest.mark.parametrize("tv,expected", CASES)
    def test_cell_at_0_18(self, demo, ll_ae, tv, expected):
        t, v = tv
        got = cell_ratio(
            demo, "a", "e", TemporalNode(t, v), ll_ae, Q(0), Q(18)
        )
        assert got == expected

    def test_zero_on_the_anchor_side(self, demo, ll_ae):
        # the anchor of (9/2, c) is (2, 9): cells start at or before 2 and
        # end at or after 9, corner included
        tv = tn("9/2", "c")
        for (i, j), expected in [((2, 9), Q(3, 4)), ((3, 18), 0),
                                 ((0, 8), 0), ((3, 8), 0)]:
            got = cell_ratio(demo, "a", "e", tv, ll_ae, Q(i), Q(j))
            assert got == expected, (i, j)

    def test_ratio_in_unit_interval(self, demo, ll_ae):
        for t in range(0, 33, 4):
            for v in demo.nodes:
                r = cell_ratio(
                    demo, "a", "e", TemporalNode(Q(t), v), ll_ae,
                    Q(1), Q(20),
                )
                assert 0 <= r <= 1


class TestContribution:
    def test_no_involvement_is_zero(self, demo, ll_ae):
        res = contribution(demo, "a", "e", tn("15/2", "c"), ll_ae)
        assert res.value == 0 and res.anchor is None
        res = contribution(demo, "a", "e", tn(10, "b"), ll_ae)
        assert res.value == 0 and res.anchor is None

    def test_anchors(self, demo, ll_ae):
        assert contribution(demo, "a", "e", tn("9/2", "c"), ll_ae).anchor == (2, 9)
        assert contribution(demo, "a", "e", tn(10, "c"), ll_ae).anchor == (9, 16)
        assert contribution(demo, "a", "e", tn(16, "d"), ll_ae).anchor == (9, 16)

    def test_values(self, demo, ll_ae):
        assert contribution(demo, "a", "e", tn("9/2", "c"), ll_ae).value == Q(63, 2)
        assert contribution(demo, "a", "e", tn(10, "c"), ll_ae).value == 98
        assert contribution(demo, "a", "e", tn(16, "d"), ll_ae).value == 98

    def test_same_pair_is_zero(self, demo):
        ll = latency_lists(demo, "c")["c"]
        res = contribution(demo, "c", "c", tn(10, "b"), ll)
        assert res.value == 0
        res = contribution(demo, "c", "c", tn(11, "c"), ll)
        assert res.value == 0

    def test_outside_window_rejected(self, demo, ll_ae):
        with pytest.raises(StreamError):
            contribution(demo, "a", "e", tn(40, "c"), ll_ae)

    @pytest.mark.parametrize("u,w,tv", [
        ("a", "e", tn(40, "c")),
        ("a", "e", tn("9/2", "zz")),
        ("a", "zz", tn("9/2", "c")),
        ("zz", "e", tn("9/2", "c")),
    ])
    def test_bad_input_rejected(self, demo, ll_ae, u, w, tv):
        with pytest.raises(StreamError):
            contribution(demo, u, w, tv, ll_ae)
        with pytest.raises(StreamError):
            cell_ratio(demo, u, w, tv, ll_ae, Q(0), Q(32))

    def test_anchor_is_unique(self, demo):
        # no second latency pair may satisfy the involvement conditions
        for u in demo.nodes:
            lists = latency_lists(demo, u)
            for w in demo.nodes:
                for t in range(0, 33, 2):
                    for v in demo.nodes:
                        tv = TemporalNode(Q(t), v)
                        hits = [
                            (x, y)
                            for x, y in lists[w]
                            if x <= tv.time <= y
                            and reachable(demo, TemporalNode(x, u), tv)
                            and reachable(demo, tv, TemporalNode(y, w))
                        ]
                        assert len(hits) <= 1

    def test_anchor_matches_reach_definition(self):
        # on int twins of random and quarter-lattice streams, at window ends,
        # event times, gap midpoints and gap thirds (off the twin's lattice),
        # the anchor is the first pair (x, y) with x <= t <= y such that the
        # sweep finds (x,u) reaching tv and tv reaching (y,w)
        rng = seeded(1106)
        anchored = 0
        for make in (random_stream, quarter_stream) * 15:
            stream = make(rng).lattice()[0]
            bounds = [stream.alpha, *stream.event_times(), stream.omega]
            times = set(bounds)
            for a, b in zip(bounds, bounds[1:]):
                times.update(a + Q(k * (b - a), d) for k, d in ((1, 2), (1, 3), (2, 3)))
            for u in stream.nodes:
                lists = latency_lists(stream, u)
                for w in stream.nodes:
                    for t in sorted(times):
                        for v in stream.nodes:
                            tv = TemporalNode(t, v)
                            hits = [
                                (x, y)
                                for x, y in lists[w]
                                if x <= t <= y
                                and reachable(stream, TemporalNode(x, u), tv)
                                and reachable(stream, tv, TemporalNode(y, w))
                            ]
                            anchor = contribution(stream, u, w, tv, lists[w]).anchor
                            if anchor is None:
                                continue
                            assert hits and anchor == hits[0], (
                                stream.serialize(), u, w, tv)
                            anchored += 1
        assert anchored > 1500

    def test_support_bound(self, demo, ll_ae):
        # accumulated cells tile ]S,s] x [a,A[ for the anchor of (10,c)
        s, a = Q(9), Q(16)
        prev = prev_list(demo, "a", "e", s, a, ll_ae)
        nxt = next_list(demo, "a", "e", s, a, ll_ae)
        S = prev.entries[-1][0]
        A = nxt.entries[-1][0]
        area = Q(0)
        s_hi = s
        for s_left, _ in prev.entries:
            a_lo = a
            for a_right, _ in nxt.entries:
                area += (s_hi - s_left) * (a_right - a_lo)
                a_lo = a_right
            s_hi = s_left
        assert area == (s - S) * (A - a)

    def test_value_bounded_by_support_area(self, demo):
        for u in demo.nodes:
            lists = latency_lists(demo, u)
            for w in demo.nodes:
                for t in range(0, 33, 4):
                    for v in demo.nodes:
                        res = contribution(
                            demo, u, w, TemporalNode(Q(t), v), lists[w]
                        )
                        assert res.value >= 0
                        span = demo.omega - demo.alpha
                        assert res.value <= span * span

    def test_instantaneous_non_event_anchor_is_zero(self, demo):
        # at a non-event time, u -> w instantaneous reachability leaves no
        # anchored pair, so the contribution vanishes
        ll = latency_lists(demo, "b")["c"]
        res = contribution(demo, "b", "c", tn(4, "c"), ll)
        assert res.value == 0 and res.anchor is None


def reference_value(stream, u, w, tv, ll, boundaries):
    """The contribution as the cell loop computes it: the anchor found by
    its reach definition, and area * vol_div(vol_tv, denominator) summed
    over the cells of `prev_list` and `next_list`.  `boundaries` keeps the
    lists by (u, w, anchor)."""
    t, v = tv
    for x, y in ll:
        if (x <= t <= y and reachable(stream, TemporalNode(x, u), tv)
                and reachable(stream, tv, TemporalNode(y, w))):
            break
    else:
        return Q(0)
    whole = vsp(stream, TemporalNode(x, u), TemporalNode(y, w))
    before = vsp(stream, TemporalNode(x, u), tv)
    after = vsp(stream, tv, TemporalNode(y, w))
    if whole.distance != before.distance + after.distance:
        return Q(0)
    key = (u, w, x, y)
    if key not in boundaries:
        boundaries[key] = (prev_list(stream, u, w, x, y, ll).entries,
                           next_list(stream, u, w, x, y, ll).entries)
    prev, nxt = boundaries[key]
    vol_tv = vol_mul(before.volume, after.volume)
    total = Q(0)
    s_hi = x
    for s_left, left in prev:
        a_lo = y
        for a_right, right in nxt:
            denom = vol_add(vol_add(left, right), whole.volume)
            total += (s_hi - s_left) * (a_right - a_lo) * vol_div(vol_tv, denom)
            a_lo = a_right
        s_hi = s_left
    return total


# int: an int-time stream, its own twin, so that `betweenness` and
# `contribution` share its frames; huge: denominators near 10**30
FRAME_STREAMS = {"int": lambda rng: integer_stream(rng).lattice()[0],
                 "quarter": quarters_stream, "huge": huge_stream}


class TestFrames:
    """A frame keeps an anchor's parts that do not depend on t; every value
    read from it is the cell loop's, whether the frame was just built or
    was filled by earlier queries."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(FRAME_STREAMS)),
           seed=st.integers(0, 10**6))
    def test_match_the_cell_loop(self, kind, seed):
        rng = seeded(seed)
        made = FRAME_STREAMS[kind](rng)
        nodes = made.nodes
        tvs = [TemporalNode(t, v) for t in ticks(made) for v in nodes]
        ref_stream, boundaries = fresh(made), {}
        expected = {}
        for tv in tvs:
            for u in nodes:
                lists = latency_lists(ref_stream, u)
                for w in nodes:
                    expected[tv, u, w] = reference_value(
                        ref_stream, u, w, tv, lists[w], boundaries)
        queries = [(tv,) for tv in tvs] + list(expected)
        filled = fresh(made)
        rng.shuffle(queries)
        for query in queries:
            ask(filled, *query)
        assert filled._frames or not any(expected.values())
        for stream in (fresh(made), filled):
            for tv in tvs:
                total = sum((expected[tv, u, w] for u in nodes for w in nodes),
                            Q(0))
                for query, want in [((tv,), total)] + [
                        ((tv, u, w), expected[tv, u, w])
                        for u in nodes for w in nodes]:
                    got = ask(stream, *query)
                    assert (got, type(got)) == (want, type(want)), (
                        made.serialize(), query)


def ask(stream, tv, u=None, w=None):
    """betweenness of tv, or the contribution of (u, w) to it."""
    if u is None:
        return betweenness(stream, tv)
    return contribution(stream, u, w, tv, latency_lists(stream, u)[w]).value


class TestSubsetCheck:
    """A vol_tv that is not the volume of a subset of a cell's denominator
    raises VolumeError, from a frame just built and from a kept one."""

    @pytest.mark.parametrize("wrong", ["higher_dim", "larger_size"])
    @pytest.mark.parametrize("query", ["betweenness", "contribution",
                                       "cell_ratio"])
    def test_raises_on_a_miss_and_a_hit(self, monkeypatch, wrong, query):
        module = importlib.import_module("linkstream.contribution")
        real = module.vol_mul

        def patched(a, b):
            vol = real(a, b)
            if wrong == "higher_dim":
                return Volume(vol.size, vol.dim + 1)
            return Volume(vol.size + 10**9, vol.dim)

        demo = parse_stream(DEMO_TEXT)
        tv = tn("9/2", "c")  # a -> e: 63/2, and 3/4 on the cell at (0, 18)
        ll = latency_lists(demo, "a")["e"]
        run = {"betweenness": lambda: betweenness(demo, tv),
               "contribution": lambda: contribution(demo, "a", "e", tv, ll),
               "cell_ratio": lambda: cell_ratio(demo, "a", "e", tv, ll,
                                                Q(0), Q(18))}[query]
        frames = demo.lattice()[0]._frames if query == "betweenness" else demo._frames
        monkeypatch.setattr(module, "vol_mul", patched)
        with pytest.raises(VolumeError):
            run()
        kept = dict(frames)
        assert kept  # the miss built and kept the frame
        with pytest.raises(VolumeError):
            run()
        assert frames == kept  # and the second call read it


class TestCallerList:
    """A list that is not the stream's own gets a frame of its own, which
    is not kept."""

    def test_another_parse_leaves_the_frames(self):
        demo = parse_stream(DEMO_TEXT)
        own = latency_lists(demo, "b")["e"]
        other = latency_lists(parse_stream(DEMO_TEXT), "b")["e"]
        tvs = [TemporalNode(t, v) for t in ticks(demo) for v in demo.nodes]
        values = [contribution(demo, "b", "e", tv, own) for tv in tvs]
        kept = dict(demo._frames)
        assert kept
        assert [contribution(demo, "b", "e", tv, other) for tv in tvs] == values
        assert demo._frames == kept

    def test_a_shorter_list_is_not_read_from_the_frames(self):
        demo = parse_stream(DEMO_TEXT)
        own = latency_lists(demo, "b")["e"]
        assert list(own)[1] == (14, 16)
        cut = LatencyList(own.starts[:1] + own.starts[2:],
                          own.arrivals[:1] + own.arrivals[2:])
        tvs = [TemporalNode(t, v) for t in ticks(demo) for v in demo.nodes]
        full = [contribution(demo, "b", "e", tv, own) for tv in tvs]
        got = [contribution(demo, "b", "e", tv, cut) for tv in tvs]
        clean = parse_stream(DEMO_TEXT)
        assert got == [contribution(clean, "b", "e", tv, cut) for tv in tvs]
        assert got != full


volumes = st.builds(Volume, st.fractions(min_value=Q(1, 8), max_value=8)
                    | st.integers(1, 8), st.integers(0, 3))


class TestFrameCells:
    """`_value` reads a frame's smallest denominator and weight: on cells of
    any dimensions and sizes, also mixed ones, it gives the cell loop's sum
    (an int or a Fraction: `contribution` and `betweenness` make it a
    Fraction), and raises VolumeError exactly where a cell's `vol_div`
    would."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(prev=st.lists(st.tuples(st.integers(1, 3), volumes | st.just(V_ZERO)),
                         min_size=0, max_size=3),
           nxt=st.lists(st.tuples(st.integers(1, 3), volumes | st.just(V_ZERO)),
                        min_size=0, max_size=3),
           middle=volumes, vol_tv=volumes)
    def test_value_is_the_cell_loop(self, prev, nxt, middle, vol_tv):
        module = importlib.import_module("linkstream.contribution")
        s, a = 10, 20
        prev = [(s - sum(d for d, _ in prev[:k + 1]), vol)
                for k, (_, vol) in enumerate(prev)]
        nxt = [(a + sum(d for d, _ in nxt[:k + 1]), vol)
               for k, (_, vol) in enumerate(nxt)]
        total = Q(0)
        try:
            s_hi = s
            for s_left, left in prev:
                a_lo = a
                for a_right, right in nxt:
                    denom = vol_add(vol_add(left, right), middle)
                    total += (s_hi - s_left) * (a_right - a_lo) * vol_div(vol_tv, denom)
                    a_lo = a_right
                s_hi = s_left
        except VolumeError:
            total = VolumeError
        with mock.patch.object(module, "prev_list", lambda *_: BoundaryList(prev)), \
                mock.patch.object(module, "next_list", lambda *_: BoundaryList(nxt)):
            frame = module._frame(None, "u", "w", s, a, None, VspResult(middle, 1))
        try:
            got = module._value((frame, vol_tv))
        except VolumeError:
            got = VolumeError
        assert got == total


SELF_STREAMS = {"random": random_stream, "relay": relay_stream,
                "quarter": quarter_stream, "huge": huge_stream}


class TestSelfPairs:
    """A pair (u, u) contributes 0 (the proof is in `betweenness._pass`):
    its anchor is an instantaneous (t, t) at an event time t, found only
    when v == u, and its frame has no cell of non-zero area."""

    @staticmethod
    def check(stream):
        bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
        events = set(stream.event_times())
        times = bounds + [(b + b2) / 2 for b, b2 in zip(bounds, bounds[1:])]
        for u in stream.nodes:
            ll = latency_lists(stream, u)[u]
            for t in times:
                for v in stream.nodes:
                    res = contribution(stream, u, u, TemporalNode(t, v), ll)
                    assert res.value == 0, (stream.serialize(), u, t, v)
                    anchored = v == u and t in events
                    assert res.anchor == ((t, t) if anchored else None)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(SELF_STREAMS)),
           seed=st.integers(0, 10**6))
    def test_contribute_zero(self, kind, seed):
        self.check(SELF_STREAMS[kind](seeded(seed)))

    @pytest.mark.parametrize("text", [DEMO_TEXT, "3 3\na b 3 3\n",
                                      "0 4\na b 0 4\nb c 2 2\n"],
                             ids=["demo", "instant", "window_ends"])
    def test_contribute_zero_on_fixed_streams(self, text):
        self.check(parse_stream(text))
