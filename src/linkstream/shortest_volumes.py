"""Volumes of shortest paths between temporal nodes.

The sweep advances over consecutive event times, maintaining for every node
the temporal distance from the source and the volume of the set of shortest
paths reaching it.  Crossing an open gap ]t, t'[ multiplies volumes by
sigma * (t'-t)^d / d! terms (one per shortest path of length d in the gap
graph); arriving exactly at t' adds the volumes of neighbors one link closer.
Intervals are closed, so the gap graph is a subgraph of the graph at t', and
a node with no link at t' keeps its distance and volume across the step.

Tables from a fixed source are cached on the stream, so repeated queries
(contribution and betweenness make many) cost one sweep per source, and the
sweep advances on demand: it runs only as far as the latest time read from
it, not to omega.  Gap graphs and their BFS tables do not depend on the
source: the stream's slot tables hold them once for every sweep.
"""

from math import factorial
from operator import itemgetter
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
    `gap`) to the next time (graph of slot `nxt`).  Intervals are closed, so
    g_next holds the gap graph: a reached node without a link in g_next is
    reached only by waiting, and keeps its distance and volume exactly.
    Only linked nodes are recomputed; an unchanged distance map is shared."""
    adjacency = stream.snapshot(nxt).adjacency

    # distances of the linked nodes: a merge of their carried-over distances
    # (list X) and a BFS of g_next (queue Q); both fronts are non-decreasing
    # in d, and so is the insertion order of every distance map.
    xs = [(w, d) for w, d in dist_t.items() if adjacency[w]]
    xi = 0
    queue = []
    qi = 0
    near = {}
    while xi < len(xs) or qi < len(queue):
        if qi >= len(queue) or (xi < len(xs) and xs[xi][1] <= queue[qi][1]):
            w, d = xs[xi]
            xi += 1
        else:
            w, d = queue[qi]
            qi += 1
        if w in near:
            continue
        near[w] = d
        for y in adjacency[w]:
            if y not in near:
                queue.append((y, d + 1))

    # volumes, in increasing distance so strictly-closer terms are final
    vol = dict(vol_t)
    for w, dw in near.items():
        acc = V_ZERO
        gap_paths = stream.bfs(gap, w)
        for x, dp in gap_paths.dist.items():
            dx = dist_t.get(x)
            if dx is not None and dx + dp == dw:
                term = vol_t[x]
                if dp:
                    term = vol_mul(term, _gap_volume(gap_paths.count[x], span, dp))
                acc = vol_add(acc, term)
        for y in adjacency[w]:
            if near.get(y) == dw - 1:
                acc = vol_add(acc, vol[y])
        vol[w] = acc
    if near.items() <= dist_t.items():  # no distance changed
        return dist_t, vol
    return dict(sorted({**dist_t, **near}.items(), key=itemgetter(1))), vol


class SweepTables:
    """Distance/volume tables from one source temporal node.  The sweep
    advances on demand: reading the state at an event time runs the steps
    up to it that have not run yet, and an off-event time, omega included,
    extends the state at the event time before it (or at the source).  The
    source is placed once, before event time `first`: step n arrives at
    event time first + n - 1, and takes its slots from that index.  A given
    `slot` places a source time that the stream cannot place: a `Poly`
    t_k + s on the open gap of that slot, whose sizes are then polynomials
    in s (`betweenness.gap_polynomial`).  The tables hold no reference to
    their stream, whose `_sweeps` holds them: every read is given it."""

    def __init__(self, stream, i, u, slot=None):
        if slot is None:
            slot = stream.slot(i)
        self.first = (slot + 1) // 2
        self.times = [i] + stream._event_times[self.first:]
        init = stream.bfs(slot, u)
        dist = dict(init.dist)
        self.states = [(dist, {w: Volume(init.count[w], 0) for w in dist})]
        self._extensions = {}

    @property
    def steps_run(self):
        """Sweep steps run so far (of len(times) - 1 planned)."""
        return len(self.states) - 1

    def _state(self, k, stream):
        """(dist, vol) maps at times[k], running the sweep up to it."""
        states, times = self.states, self.times
        while len(states) <= k:
            n = len(states)
            slot = 2 * (self.first + n) - 1
            states.append(_advance(stream, slot - 1, slot,
                                   times[n] - times[n - 1], *states[-1]))
        return states[k]

    def state_at(self, j, stream):
        """(dist, vol) maps at time j, source time <= j <= omega."""
        times = self.times
        n, on = stream._place(j)
        # k counts the event times on the table up to j
        k = n - self.first
        if k <= 0 and j < times[0]:
            raise StreamError("query time %s before source time %s"
                              % (j, times[0]))
        if on or times[k] == j:
            return self._state(k, stream)
        # every event time after the source is on the table, so j lies in a
        # gap, slot 2n, which is also the graph at j
        return self.on_gap(n, j, stream)

    def on_gap(self, n, j, stream):
        """(dist, vol) maps at time j on the open gap of slot 2n, later than
        the table's time before it (event time n - 1, or the source): that
        state extended across the rest.  j may be a `Poly` t_k + s, which
        `state_at` cannot place."""
        state = self._extensions.get(j)
        if state is None:
            k = n - self.first
            state = _advance(stream, 2 * n, 2 * n, j - self.times[k],
                             *self._state(k, stream))
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
    return _vsp(stream, src.time, src.node, dst.time, dst.node)


def _vsp(stream, i, u, j, v):
    """vsp from (i, u) to (j, v), without validating them: both temporal
    nodes are in the stream and i <= j."""
    dist, vol = sweep_tables(stream, i, u).state_at(j, stream)
    d = dist.get(v)
    if d is None:
        return VspResult(V_ZERO, None)
    return VspResult(vol[v], d)


def reachable(stream, src, dst):
    """True iff some path leads from src to dst (the empty path counts)."""
    stream.check_temporal_node(src)
    stream.check_temporal_node(dst)
    if src.time > dst.time:
        return False
    return _vsp(stream, *src, *dst).distance is not None
