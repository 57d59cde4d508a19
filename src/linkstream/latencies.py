"""Latency pairs and latency lists.

A latency pair (s, a) from u to w means the fastest paths from (s, u) to
(a, w) start exactly at s and arrive exactly at a.  Non-instantaneous pairs
have event-time coordinates; the lists record instantaneous pairs at event
times only (the continuum between event times is implied).
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .numbers import Q


class LatencyPair(NamedTuple):
    start: object
    arrival: object

    def __repr__(self):
        return "(%s,%s)" % (self.start, self.arrival)


class LatencyList:
    """Componentwise strictly increasing list of latency pairs, held as the
    plain lists of their starts and of their arrivals, for bisection."""

    __slots__ = ("starts", "arrivals")

    def __init__(self, pairs):
        pairs = list(pairs)
        self.starts = [s for s, _ in pairs]
        self.arrivals = [a for _, a in pairs]
        starts, arrivals = self.starts, self.arrivals
        for s, s2, a, a2 in zip(starts, starts[1:], arrivals, arrivals[1:]):
            if not (s < s2 and a < a2):
                raise ValueError(
                    "latency pairs not componentwise increasing: "
                    "(%s,%s) then (%s,%s)" % (s, a, s2, a2)
                )

    def __iter__(self):
        return map(LatencyPair, self.starts, self.arrivals)

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, k):
        return list(self)[k]

    def __eq__(self, other):
        return (isinstance(other, LatencyList) and self.starts == other.starts
                and self.arrivals == other.arrivals)

    def __repr__(self):
        return "LatencyList(%r)" % (list(self),)


def latency_lists(stream, u):
    """All latency lists from node u, one per node of the stream.

    Scans event times in increasing order; at each time, every connected
    component reachable from u extends the lists of its members that are not
    already reachable from the latest feasible start.  A one-node component
    has no such member, so it is skipped.
    """
    stream.check_nodes(u)
    ll = {w: [] for w in stream.nodes}
    for i, t in enumerate(stream.event_times()):
        ll[u].append((t, t))
        for comp in stream.components(2 * i + 1):
            if len(comp) == 1:
                continue
            s = None
            maximizers = set()
            for w in comp:
                if not ll[w]:
                    continue
                s2, _ = ll[w][-1]
                if s is None or s2 > s:
                    s = s2
                    maximizers = {w}
                elif s2 == s:
                    maximizers.add(w)
            if maximizers:
                for w in comp - maximizers:
                    ll[w].append((s, t))
    return {w: LatencyList(pairs) for w, pairs in ll.items()}


def cached_latency_lists(stream, u):
    """latency_lists(stream, u), cached on the stream."""
    lists = stream._latency_lists.get(u)
    if lists is None:
        lists = latency_lists(stream, u)
        stream._latency_lists[u] = lists
    return lists


def reaches(stream, src, dst):
    """True iff some path leads from src to dst, decided without a sweep:
    the nodes are equal or connected at src.time, or the first latency pair
    starting at or after src.time arrives by dst.time."""
    x, u = src
    t, v = dst
    if x > t:
        return False
    return _reaches(stream, stream.slot(x), stream.int_bounds(x)[1], u,
                    stream.int_bounds(t)[0], v)


def _reaches(stream, slot, after, u, by, v):
    """reaches from (x, u) to (t, v) for x <= t, with x given by its slot
    and its upper int bound `after`, and t by its lower int bound `by`
    (`LinkStream.int_bounds`): every comparison is on event times."""
    if u == v or v in stream.bfs(slot, u).dist:
        return True
    ll = cached_latency_lists(stream, u)[v]
    k = bisect_left(ll.starts, after)
    return k < len(ll.starts) and ll.arrivals[k] <= by


def latency(stream, src, dst_node, arrive_by=None):
    """Minimal duration of a path from src to dst_node arriving by
    `arrive_by` (default omega); None when unreachable.

    Only pairs starting at or after src.time are usable; an instantaneous
    path in the snapshot at src.time gives 0 directly (it covers the
    continuum of instantaneous pairs inside the gap holding src.time).
    """
    stream.check_temporal_node(src)
    stream.check_nodes(dst_node)
    x, u = src
    y = stream.omega if arrive_by is None else arrive_by
    if y < x:
        return None
    if u == dst_node:
        return Q(0)
    if dst_node in stream.bfs(stream.slot(x), u).dist:
        return Q(0)
    # starts and arrivals both increase, so the usable pairs form one range
    ll = cached_latency_lists(stream, u)[dst_node]
    usable = range(bisect_left(ll.starts, x), bisect_right(ll.arrivals, y))
    return min((ll.arrivals[k] - ll.starts[k] for k in usable), default=None)
