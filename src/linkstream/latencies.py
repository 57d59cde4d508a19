"""Latency pairs and latency lists.

A latency pair (s, a) from u to w means the fastest paths from (s, u) to
(a, w) start exactly at s and arrive exactly at a.  Non-instantaneous pairs
have event-time coordinates; the lists record instantaneous pairs at event
times only (the continuum between event times is implied).  One scan over
the event times and their components builds the lists of a set of sources
into the stream's table, filled only for the sources that queries read.
"""

from bisect import bisect_left, bisect_right
from operator import lt
from typing import NamedTuple

from .numbers import Q


class LatencyPair(NamedTuple):
    start: object
    arrival: object

    def __repr__(self):
        return "(%s,%s)" % (self.start, self.arrival)


class LatencyList:
    """Componentwise strictly increasing list of latency pairs, held as the
    plain lists of their starts and of their arrivals, as given, to bisect."""

    __slots__ = ("starts", "arrivals")

    def __init__(self, starts, arrivals):
        if not (all(map(lt, starts, starts[1:]))
                and all(map(lt, arrivals, arrivals[1:]))):
            raise ValueError("latency pairs not componentwise increasing: %s"
                             % list(map(LatencyPair, starts, arrivals)))
        self.starts, self.arrivals = starts, arrivals

    @classmethod
    def _trusted(cls, starts, arrivals):
        """The list of starts and arrivals that are componentwise strictly
        increasing by construction, unchecked."""
        ll = cls.__new__(cls)
        ll.starts, ll.arrivals = starts, arrivals
        return ll

    def __iter__(self):
        return map(LatencyPair, self.starts, self.arrivals)

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(LatencyPair, self.starts[k], self.arrivals[k]))
        return LatencyPair(self.starts[k], self.arrivals[k])

    def __eq__(self, other):
        return (isinstance(other, LatencyList) and self.starts == other.starts
                and self.arrivals == other.arrivals)

    def __repr__(self):
        return "LatencyList(%r)" % (list(self),)


def latency_lists(stream, u):
    """All latency lists from node u, by node: a shared mapping, read only."""
    stream.check_nodes(u)
    return _lists(stream, (u,))[u]


def _lists(stream, sources):
    """The stream's table, source -> node -> LatencyList, after one `_scan`
    for the nodes of `sources` it lacks."""
    missing = set(sources).difference(stream._latency_lists)
    if missing:
        stream._latency_lists.update(_scan(stream, missing))
    return stream._latency_lists


def _scan(stream, sources):
    """source -> node -> LatencyList for each source in the set `sources`,
    in one scan of the event times.  latest[w] maps each source u other
    than w to the index of the latest event time from which u reaches w so
    far.  Each component at event time i (`LinkStream.components`: an
    unlinked node reaches no one) merges the maps of its members: a member
    behind the maximum m for a source gets the pair (m, t), and m = i for a
    source inside.  The members then share the merged map, a new dict
    never changed.  Members that still share a map are merged as one:
    nothing has reached them since they were equalized (a node is in one
    component at a time), so only the sources inside move, each to (t, t).
    When every member holds that one map, as in a component unchanged since
    the previous event time, there is nothing to compare: those pairs are
    emitted directly.  Every list is componentwise strictly increasing as
    built, so it is taken unchecked: a node gets at most one pair per
    source at each event time, and only when the source's index has grown
    past that of the node's last pair, which is m at that pair."""
    ev = stream._event_times
    latest = dict.fromkeys(stream.nodes, {})
    # node -> source -> the starts, and the arrivals, of its pairs so far
    starts = {w: {u: [] for u in sources} for w in stream.nodes}
    arrivals = {w: {u: [] for u in sources} for w in stream.nodes}
    for i, t in enumerate(ev):
        for comp in stream.components(2 * i + 1):
            inside = comp & sources
            shared = latest[next(iter(comp))]
            if all(latest[w] is shared for w in comp):
                if inside:
                    best = dict(shared)
                    best.update(dict.fromkeys(inside, i))
                    for w in comp:
                        latest[w] = best
                        sw, aw = starts[w], arrivals[w]
                        for u in inside:
                            if u != w:
                                sw[u].append(t)
                                aw[u].append(t)
                continue
            groups = {}  # id of a map -> (the map, the members that hold it)
            for w in comp:
                groups.setdefault(id(latest[w]), (latest[w], []))[1].append(w)
            maps = list(groups.values())
            best = dict(maps[0][0])
            for held, _ in maps[1:]:
                for u, k in held.items() - best.items():
                    if best.get(u, -1) < k:
                        best[u] = k
            best.update(dict.fromkeys(inside, i))
            for held, members in maps:
                behind = best.items() - held.items()
                for w in members:
                    latest[w] = best
                    sw, aw = starts[w], arrivals[w]
                    for u, k in behind:
                        if u != w:
                            sw[u].append(ev[k])
                            aw[u].append(t)
    for u in sources:
        starts[u][u], arrivals[u][u] = list(ev), list(ev)
    return {u: {w: LatencyList._trusted(starts[w][u], arrivals[w][u])
                for w in stream.nodes} for u in sources}


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
    stream._check_time(y)
    if y < x:
        return None
    if dst_node in stream.bfs(stream.slot(x), u).dist:
        return Q(0)
    # starts and arrivals both increase, so the usable pairs form one range
    ll = _lists(stream, (u,))[u][dst_node]
    usable = range(bisect_left(ll.starts, x), bisect_right(ll.arrivals, y))
    return min((ll.arrivals[k] - ll.starts[k] for k in usable), default=None)
