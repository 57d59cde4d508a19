"""The sweep step recomputes only the nodes linked at the next time.

`reference_advance` is the step that recomputes every reached node at every
step.  Every state a sweep reads, at an event time or inside a gap, must
equal the one the reference chain gives, number type included; distance
maps must stay in non-decreasing distance order (the next step's merge
relies on it); a read must run as many steps as before; and since a step
may share a map with the state before it, reading later states must leave
every earlier one as it was.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from linkstream import Q
from linkstream.shortest_volumes import SweepTables, _gap_volume
from linkstream.volumes import V_ZERO, vol_add, vol_mul

from conftest import seeded
from test_lattice import huge_stream
from test_lazy import int_stream, ticks
from test_shared_state import quarter_stream

STREAMS = {"integer": int_stream, "quarter": quarter_stream}


def reference_advance(stream, gap, nxt, span, dist_t, vol_t):
    """The sweep step over every reached node: distances by a merge of the
    carried-over distances and a BFS of the next graph, then volumes in
    increasing distance."""
    g_next = stream.snapshot(nxt)
    xs = list(dist_t.items())
    xi = 0
    queue = []
    qi = 0
    dist = {}
    while xi < len(xs) or qi < len(queue):
        if qi >= len(queue) or (xi < len(xs) and xs[xi][1] <= queue[qi][1]):
            w, d = xs[xi]
            xi += 1
        else:
            w, d = queue[qi]
            qi += 1
        if w in dist:
            continue
        dist[w] = d
        for y in g_next.neighbors(w):
            if y not in dist:
                queue.append((y, d + 1))
    vol = {}
    for w, dw in dist.items():
        acc = V_ZERO
        gap_paths = stream.bfs(gap, w)
        for x, dp in gap_paths.dist.items():
            dx = dist_t.get(x)
            if dx is not None and dx + dp == dw:
                term = vol_t[x]
                if dp:
                    term = vol_mul(term, _gap_volume(gap_paths.count[x], span, dp))
                acc = vol_add(acc, term)
        for y in g_next.neighbors(w):
            if dist.get(y) == dw - 1:
                acc = vol_add(acc, vol[y])
        vol[w] = acc
    return dist, vol


def sources(stream):
    return [(x, u) for x in ticks(stream)[::3] for u in stream.nodes]


def gap_times(times):
    """(k, time) for the midpoint after every times[k] but the last."""
    return [(k, a + Q(b - a, 2)) for k, (a, b) in enumerate(zip(times, times[1:]))]


def sizes(vol):
    """The volumes with the type of every size."""
    return {w: (v, type(v.size)) for w, v in vol.items()}


def typed(state):
    """A copy of the state, with size types, in map order."""
    dist, vol = state
    return list(dist.items()), list(sizes(vol).items())


def assert_same(state, expected):
    dist, vol = state
    assert dist == expected[0]
    assert sizes(vol) == sizes(expected[1])
    assert list(dist.values()) == sorted(dist.values())


@pytest.mark.parametrize("kind", sorted(STREAMS))
@pytest.mark.parametrize("seed", range(10))
class TestStep:
    def test_states_match_the_reference(self, kind, seed):
        stream = STREAMS[kind](seeded(4100 + seed))
        for x, u in sources(stream):
            tables = SweepTables(stream, x, u)
            times = tables.times
            chain = [tables.states[0]]
            for a, b in zip(times, times[1:]):
                chain.append(reference_advance(
                    stream, stream.gap(b, False), stream.slot(b), b - a,
                    *chain[-1]))
            for k in range(len(times)):
                assert_same(tables._state(k, stream), chain[k])
            for k, j in gap_times(times):
                slot = stream.slot(j)
                expected = reference_advance(stream, slot, slot, j - times[k],
                                             *chain[k])
                assert_same(tables.state_at(j, stream), expected)

    def test_steps_run_follow_the_latest_read(self, kind, seed):
        stream = STREAMS[kind](seeded(4200 + seed))
        rng = random.Random(seed)
        for x, u in sources(stream):
            tables = SweepTables(stream, x, u)
            reads = list(enumerate(tables.times)) + gap_times(tables.times)
            rng.shuffle(reads)
            latest = 0
            for k, j in reads:
                tables.state_at(j, stream)
                latest = max(latest, k)
                assert tables.steps_run == latest

    def test_later_reads_leave_earlier_states(self, kind, seed):
        stream = STREAMS[kind](seeded(4300 + seed))
        for x, u in sources(stream):
            tables = SweepTables(stream, x, u)
            extensions = dict(gap_times(tables.times))
            seen = []
            for k in range(len(tables.times)):
                reads = [tables._state(k, stream)]
                if k in extensions:
                    reads.append(tables.state_at(extensions[k], stream))
                seen += [(state, typed(state)) for state in reads]
                for state, copy in seen:
                    assert typed(state) == copy


# huge: times whose denominators are 10**30 + 7 and 10**30 - 1
VOLUME_STREAMS = {**STREAMS, "huge": huge_stream}


class TestReachedVolumes:
    """`_anchor` relies on this: a node that a sweep reaches has a volume
    of positive size, so a product of two reached volumes is never zero."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(VOLUME_STREAMS)),
           seed=st.integers(0, 10**6))
    def test_every_reached_node_has_a_positive_volume(self, kind, seed):
        stream = VOLUME_STREAMS[kind](seeded(seed))
        for x, u in sources(stream):
            tables = SweepTables(stream, x, u)
            reads = tables.times + [j for _, j in gap_times(tables.times)]
            for j in reads:
                dist, vol = tables.state_at(j, stream)
                assert u in dist
                assert all(vol[w].size > 0 for w in dist)
