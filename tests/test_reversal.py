"""Time reversal, with no oracle involved.

Reading a stream backwards in time (`conftest.reversed_stream`) turns a path
from (x, u) to (t, v) into one from (-t, v) to (-x, u) with the same length
and the same volume.  So every exact quantity has a mirror image on the
reversed stream R:

- vsp(S, (x,u) -> (t,v)) == vsp(R, (-t,v) -> (-x,u));
- betweenness(S, (t,v)) == betweenness(R, (-t,v));
- contribution(S, u, w, (t,v)) == contribution(R, w, u, (-t,v)), whose
  anchor (s, a) becomes (-a, -s);
- prev_list(S, u, w, s, a) is next_list(R, w, u, -a, -s) with every
  boundary negated, and next_list(S, ...) is prev_list(R, ...) likewise.

The streams are random, on the integer and quarter lattices, and the query
times include points off both lattices.
"""

from hypothesis import given, settings, strategies as st

from linkstream import (
    Q,
    TemporalNode,
    betweenness,
    contribution,
    latency_lists,
    next_list,
    prev_list,
    vsp,
)

from conftest import random_stream, reversed_stream, seeded
from test_shared_state import quarter_stream


def integer_stream(rng):
    return random_stream(rng, max_segments=10, horizon=10)


STREAMS = {"integer": integer_stream, "quarter": quarter_stream}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


def query_times(stream):
    """Window ends, event times, and the point a third of the way across
    every gap between them: off the integer and quarter lattices."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    thirds = [b + (b2 - b) / 3 for b, b2 in zip(bounds, bounds[1:])]
    return sorted(bounds + thirds)


def case(kind, seed):
    stream = STREAMS[kind](seeded(seed))
    return stream, reversed_stream(stream), query_times(stream)


def mirrored(entries):
    return [(-b, vol) for b, vol in entries]


def test_reversed_stream_mirrors_window_and_intervals():
    stream = integer_stream(seeded(4))
    rev = reversed_stream(stream)
    assert (rev.alpha, rev.omega) == (-stream.omega, -stream.alpha)
    assert rev.event_times() == sorted(-t for t in stream.event_times())
    assert reversed_stream(rev).presence == stream.presence


@PROPERTY
@given(kind=st.sampled_from(sorted(STREAMS)), seed=st.integers(0, 10**6),
       i=st.integers(0, 10**3), j=st.integers(0, 10**3))
def test_vsp(kind, seed, i, j):
    stream, rev, times = case(kind, seed)
    x, t = sorted((times[i % len(times)], times[j % len(times)]))
    for u in stream.nodes:
        for v in stream.nodes:
            got = vsp(stream, TemporalNode(x, u), TemporalNode(t, v))
            back = vsp(rev, TemporalNode(-t, v), TemporalNode(-x, u))
            assert got == back


@PROPERTY
@given(kind=st.sampled_from(sorted(STREAMS)), seed=st.integers(0, 10**6),
       k=st.integers(0, 10**3))
def test_betweenness(kind, seed, k):
    stream, rev, times = case(kind, seed)
    t = times[k % len(times)]
    for v in stream.nodes:
        assert (betweenness(stream, TemporalNode(t, v))
                == betweenness(rev, TemporalNode(-t, v)))


@PROPERTY
@given(kind=st.sampled_from(sorted(STREAMS)), seed=st.integers(0, 10**6),
       k=st.integers(0, 10**3))
def test_contribution(kind, seed, k):
    stream, rev, times = case(kind, seed)
    t = times[k % len(times)]
    for u in stream.nodes:
        lists = latency_lists(stream, u)
        for w in stream.nodes:
            lists_r = latency_lists(rev, w)
            for v in stream.nodes:
                got = contribution(stream, u, w, TemporalNode(t, v), lists[w])
                back = contribution(rev, w, u, TemporalNode(-t, v), lists_r[u])
                assert got.value == back.value
                if got.anchor is not None:
                    assert back.anchor == (-got.anchor[1], -got.anchor[0])


@PROPERTY
@given(kind=st.sampled_from(sorted(STREAMS)), seed=st.integers(0, 10**6))
def test_boundary_lists(kind, seed):
    stream, rev, _ = case(kind, seed)
    for u in stream.nodes:
        lists = latency_lists(stream, u)
        for w in stream.nodes:
            ll, ll_r = lists[w], latency_lists(rev, w)[u]
            assert [(-a, -s) for s, a in reversed(list(ll))] == list(ll_r)
            for s, a in ll:
                prev = prev_list(stream, u, w, s, a, ll)
                nxt = next_list(stream, u, w, s, a, ll)
                assert mirrored(prev.entries) == next_list(
                    rev, w, u, -a, -s, ll_r).entries
                assert mirrored(nxt.entries) == prev_list(
                    rev, w, u, -a, -s, ll_r).entries
