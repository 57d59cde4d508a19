"""Volumes of shortest paths between temporal nodes.

The sweep advances over consecutive event times, maintaining for every node
the temporal distance from the source and the volume of the set of shortest
paths reaching it.  Crossing an open gap ]t, t'[ multiplies volumes by
sigma * (t'-t)^d / d! terms (one per shortest path of length d in the gap
graph); arriving exactly at t' adds the volumes of neighbors one link closer.

Tables from a fixed source are cached on the stream, so repeated queries
(contribution and betweenness make many) cost one sweep per source.  Gap
graphs and their BFS tables do not depend on the source: the stream's slot
tables hold them once for every sweep.
"""

from bisect import bisect_right
from math import factorial
from typing import NamedTuple

from .numbers import exact_div
from .static_graph import bfs_counts
from .stream import StreamError
from .volumes import V_UNIT, V_ZERO, Volume, vol_add, vol_mul


class VspResult(NamedTuple):
    volume: Volume
    distance: object  # int, or None when unreachable


def segment_volume(g_plus, x, w, t, t2):
    """Volume of the shortest paths from x to w that start and arrive
    strictly inside ]t, t2[, whose constant graph is `g_plus`."""
    res = bfs_counts(g_plus, x)
    d = res.dist.get(w)
    if d is None:
        return V_ZERO
    return _gap_volume(res.count[w], t2 - t, d)


def _gap_volume(sigma, span, d):
    if d == 0:
        return V_UNIT
    return Volume(exact_div(sigma * span**d, factorial(d)), d)


def _advance(stream, gap, nxt, span, dist_t, vol_t):
    """One sweep step across an open gap of length `span` (graph of slot
    `gap`) to the next time (graph of slot `nxt`)."""
    g_next = stream.snapshot(nxt)

    # distances: a merge of the carried-over distances (list X) and a BFS of
    # g_next (queue Q); both fronts are non-decreasing in d, and so is the
    # insertion order of every distance map.
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

    # volumes, in increasing distance so strictly-closer terms are final
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


class SweepTables:
    """Distance/volume tables from one source temporal node, evaluated at
    every event time up to omega, with cheap extension to off-event times."""

    def __init__(self, stream, i, u):
        self.stream = stream
        self.source = (i, u)
        events = stream._event_times
        first = bisect_right(events, i)
        times = [i] + events[first:]
        # (gap slot, arrival slot) of each step: event k sits in slot 2k+1
        # behind the gap 2k; omega past the last event sits in that gap
        steps = [(2 * k, 2 * k + 1) for k in range(first, len(events))]
        if times[-1] < stream.omega:
            times.append(stream.omega)
            steps.append((2 * len(events), 2 * len(events)))
        init = stream.bfs(stream.slot(i), u)
        dist = dict(init.dist)
        vol = {w: Volume(init.count[w], 0) for w in dist}
        states = [(dist, vol)]
        for (gap, nxt), t, t2 in zip(steps, times, times[1:]):
            dist, vol = _advance(stream, gap, nxt, t2 - t, dist, vol)
            states.append((dist, vol))
        self.times = times
        self.states = states
        self._extensions = {}

    def state_at(self, j):
        """(dist, vol) maps at time j >= source time."""
        k = bisect_right(self.times, j) - 1
        if k < 0:
            raise StreamError("query time %s before source time %s"
                              % (j, self.source[0]))
        if self.times[k] == j:
            return self.states[k]
        state = self._extensions.get(j)
        if state is None:
            # every event time after the source is on the table, so j lies
            # in a gap, which is also the graph at j
            slot = self.stream.slot(j)
            dist, vol = self.states[k]
            state = _advance(self.stream, slot, slot, j - self.times[k], dist, vol)
            self._extensions[j] = state
        return state


def sweep_tables(stream, i, u):
    """SweepTables for source (i, u), cached on the stream."""
    tables = stream._sweeps.get((i, u))
    if tables is None:
        tables = SweepTables(stream, i, u)
        stream._sweeps[(i, u)] = tables
    return tables


def vsp(stream, src, dst):
    """Volume of the shortest paths from src to dst, with the temporal
    distance; ((0,0), None) when dst is unreachable."""
    stream.check_temporal_node(src)
    stream.check_temporal_node(dst)
    if src.time > dst.time:
        raise StreamError("source time %s after destination time %s"
                          % (src.time, dst.time))
    dist, vol = sweep_tables(stream, src.time, src.node).state_at(dst.time)
    d = dist.get(dst.node)
    if d is None:
        return VspResult(V_ZERO, None)
    return VspResult(vol[dst.node], d)


def reachable(stream, src, dst):
    """True iff some path leads from src to dst (the empty path counts)."""
    if src.time > dst.time:
        return False
    return vsp(stream, src, dst).distance is not None
