"""Link streams: nodes linked over unions of disjoint closed time intervals.

A stream lives on a window [alpha, omega]; each unordered node pair carries a
normalized set of maximal presence intervals.  Event times are the interval
bounds; the instantaneous graph only changes there.

The event times cut the window into slots, on each of which the graph is
constant: with n event times, slot 2i+1 is event time i, slot 2i is the open
gap before it, and slot 2n is the gap after the last one (with none, slot 0
covers the window).  Times are placed only here, on int ticks, by
`LinkStream.slot` and `LinkStream.gap`; other modules read graphs and
tables by slot, and a walk over the event times reads slot 2i+1 at i.
"""

from bisect import bisect_left
from math import gcd, lcm
from typing import NamedTuple

from .numbers import Q, as_q, on_lattice, parse_time
from .static_graph import bfs_counts


class StreamError(ValueError):
    pass


class TemporalNode(NamedTuple):
    time: object  # exact rational
    node: str

    def __repr__(self):
        return "(%s,%s)" % (self.time, self.node)


class IntervalSet:
    """Sorted list of pairwise disjoint closed intervals [b, e], b <= e.
    Overlapping or touching intervals merge on normalization."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        merged = []
        for b, e in sorted(intervals):
            if b > e:
                raise StreamError("interval with b > e: [%s, %s]" % (b, e))
            if merged and b <= merged[-1][1]:
                pb, pe = merged[-1]
                merged[-1] = (pb, max(pe, e))
            else:
                merged.append((b, e))
        self.intervals = merged

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __contains__(self, t):
        for b, e in self.intervals:
            if b <= t <= e:
                return True
            if b > t:
                break
        return False

    def bounds(self):
        for b, e in self.intervals:
            yield b
            yield e

    def _mapped(self, f):
        """The set with every bound replaced by f(bound), for a strictly
        increasing f, which keeps the intervals sorted, disjoint and apart:
        nothing is sorted or merged again."""
        ivs = IntervalSet.__new__(IntervalSet)
        ivs.intervals = [(f(b), f(e)) for b, e in self.intervals]
        return ivs


class SnapshotGraph:
    """Static undirected graph at one instant (or over one open gap)."""

    __slots__ = ("nodes", "adjacency")

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        adj = {v: [] for v in self.nodes}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = adj

    @property
    def edges(self):
        return {
            frozenset((u, v)) for u, nbrs in self.adjacency.items() for v in nbrs
        }

    def neighbors(self, v):
        return self.adjacency[v]


class LinkStream:
    """Immutable after construction; the tables shared by queries are
    filled lazily."""

    def __init__(self, alpha, omega, nodes, presence):
        if alpha > omega:
            raise StreamError("alpha > omega")
        self.alpha = alpha
        self.omega = omega
        self.nodes = tuple(sorted(set(nodes)))
        self.presence = {}
        for pair, ivs in presence.items():
            u, v = pair
            if u == v:
                raise StreamError("self-link on node %r" % u)
            if u not in self.nodes or v not in self.nodes:
                raise StreamError("link on unknown node in pair %r" % (pair,))
            key = (u, v) if u < v else (v, u)
            if not isinstance(ivs, IntervalSet):
                ivs = IntervalSet(ivs)
            if key in self.presence:
                ivs = IntervalSet(list(self.presence[key]) + list(ivs))
            for b, e in ivs:
                if b < alpha or e > omega:
                    raise StreamError(
                        "interval [%s, %s] outside [%s, %s]" % (b, e, alpha, omega)
                    )
            if len(ivs):
                self.presence[key] = ivs
        times = set()
        for ivs in self.presence.values():
            times.update(ivs.bounds())
        for t in (alpha, omega, *times):
            if not isinstance(t, (int, Q)):
                raise TypeError("cannot convert %r to an exact rational" % (t,))
        self._set_events(sorted(times))

    @classmethod
    def _of_parts(cls, alpha, omega, nodes, presence, event_times):
        """The stream of parts that are already checked and normalized, as
        `__init__` leaves them: sorted `nodes`, `presence` mapping ordered
        pairs to non-empty IntervalSets inside [alpha, omega], and the sorted
        distinct bounds of those sets as `event_times`."""
        stream = cls.__new__(cls)
        stream.alpha, stream.omega = alpha, omega
        stream.nodes, stream.presence = nodes, presence
        stream._set_events(event_times)
        return stream

    def _set_events(self, event_times):
        self._event_times = event_times
        # L, and the ticks t * L of the window ends and the event times
        bounds = (self.alpha, self.omega, *event_times)
        self._scale = scale = lcm(*(t.denominator for t in bounds))
        ticks = [t.numerator * (scale // t.denominator) for t in bounds]
        self._end_ticks, self._event_ticks = ticks[:2], ticks[2:]
        # Tables that do not depend on a query's source, filled on first use
        # and shared by every query.
        self._snapshots = None  # slot -> SnapshotGraph, one per link set
        self._components = {}  # SnapshotGraph -> components of 2+ nodes
        self._bfs = {}  # (SnapshotGraph, node) -> BfsResult
        self._sweeps = {}  # (time, node) -> shortest_volumes.SweepTables
        self._latency_lists = {}  # source -> latencies.latency_lists result
        self._twin = None  # lattice() at _scale: this stream or an int copy

    # -- basic queries ----------------------------------------------------

    def segment_count(self):
        """Total number of maximal presence intervals."""
        return sum(len(ivs) for ivs in self.presence.values())

    def event_times(self):
        return list(self._event_times)

    def _check_time(self, t):
        lo, hi = self._tick_bounds(t)
        alpha, omega = self._end_ticks
        if lo < alpha or hi > omega:
            raise StreamError("time %s outside [%s, %s]" % (t, self.alpha, self.omega))

    def graph_at(self, t):
        """The instantaneous graph G_t."""
        self._check_time(t)
        return self.snapshot(self.slot(t))

    def _tick_bounds(self, t):
        """The floor and the ceiling of t * L, for L the stream's `scale()`:
        for every event or window-end time e, e <= t iff e * L <= floor, and
        e >= t iff e * L >= ceiling."""
        try:
            lo, rem = divmod(t.numerator * self._scale, t.denominator)
        except AttributeError:  # a float has no exact place among the ticks
            raise TypeError("cannot convert %r to an exact rational" % (t,))
        return lo, lo + (rem != 0)

    def slot(self, t):
        """Index of the slot holding time t: 2i+1 at event time i, 2i on the
        open gap before it.  alpha and omega off the event times lie in the
        first and the last gap.  t is placed among the int event ticks by
        the floor and the ceiling of t * L, so it is compared as ints."""
        lo, hi = self._tick_bounds(t)
        ev = self._event_ticks
        i = bisect_left(ev, hi)
        return 2 * i + 1 if i < len(ev) and ev[i] == lo else 2 * i

    def gap(self, t, forward):
        """Slot of the open gap just after t (forward) or just before t: the
        gap holding t when t is not an event time.  None at the window end
        on that side, where no gap lies beyond t."""
        k = self.slot(t)
        if t == (self.omega if forward else self.alpha):
            return None
        return k + (k & 1) if forward else k - (k & 1)

    def snapshot(self, k):
        """The graph of slot k, one graph per set of links: all slots are
        built in one pass over the sorted interval endpoints on first use."""
        if self._snapshots is None:
            starts, ends = {}, {}
            for pair, ivs in self.presence.items():
                for b, e in ivs:
                    starts.setdefault(b, []).append(pair)
                    ends.setdefault(e, []).append(pair)
            active = {}  # insertion-ordered set of present pairs
            graphs = {}  # frozenset of present pairs -> its graph

            def graph():
                key = frozenset(active)
                if key not in graphs:
                    graphs[key] = SnapshotGraph(self.nodes, active)
                return graphs[key]

            slots = [graph()]
            for t in self._event_times:
                active.update(dict.fromkeys(starts.get(t, ())))
                slots.append(graph())
                for pair in ends.get(t, ()):
                    del active[pair]
                slots.append(graph())
            self._snapshots = slots
        return self._snapshots[k]

    def components(self, k):
        """The connected components of two or more nodes in the graph of
        slot k (cached per graph): a search starts only at a node with a
        link, so the others cost nothing."""
        g = self.snapshot(k)
        comps = self._components.get(g)
        if comps is None:
            adj = g.adjacency
            comps, seen = [], set()
            for start, nbrs in adj.items():
                if not nbrs or start in seen:
                    continue
                comp, todo = {start}, [start]
                while todo:
                    for y in adj[todo.pop()]:
                        if y not in comp:
                            comp.add(y)
                            todo.append(y)
                seen |= comp
                comps.append(comp)
            self._components[g] = comps
        return comps

    def bfs(self, k, w):
        """BFS distances and path counts from w in the graph of slot k
        (cached per graph)."""
        key = (self.snapshot(k), w)
        res = self._bfs.get(key)
        if res is None:
            res = self._bfs[key] = bfs_counts(key[0], w)
        return res

    def check_nodes(self, *nodes):
        for v in nodes:
            if v not in self.nodes:
                raise StreamError("unknown node %r" % v)

    def check_temporal_node(self, tn):
        self._check_time(tn.time)
        self.check_nodes(tn.node)

    # -- integer time lattice ----------------------------------------------

    def scale(self, times=()):
        """L, the lcm of the denominators of alpha, omega, every interval
        bound and `times`: every one of these times is a multiple of 1/L.
        The stream's own L, without `times`, is computed when it is built."""
        return lcm(self._scale, *(as_q(t).denominator for t in times))

    def lattice(self, times=()):
        """(twin, L): L is `scale(times)`, and twin is this stream with every
        time multiplied by L, so all its times are ints, and its own L is 1.
        The twin of the stream's own L is found once and kept: the stream
        itself when its times are ints already, otherwise an int copy
        (`parse_stream` builds it with the stream).  A twin for a larger L
        (from `times`) is built anew on each call."""
        scale = self.scale(times)
        if scale != self._scale:
            return self._scaled(scale), scale
        if self._twin is None:
            bounds = (self.alpha, self.omega, *self._event_times)
            own = all(type(t) is int for t in bounds)
            self._twin = self if own else self._scaled(scale)
        return self._twin, scale

    def _scaled(self, scale):
        def tick(t):
            return on_lattice(t, scale)

        presence = {pair: ivs._mapped(tick) for pair, ivs in self.presence.items()}
        return LinkStream._of_parts(tick(self.alpha), tick(self.omega), self.nodes,
                                    presence, list(map(tick, self._event_times)))

    # -- serialization ----------------------------------------------------

    def serialize(self):
        """The stream in the file format of `parse_stream`; nodes without a
        link get a line of their own."""
        lines = ["%s %s" % (self.alpha, self.omega)]
        linked = set()
        for (u, v) in sorted(self.presence):
            linked.update((u, v))
            for b, e in self.presence[(u, v)]:
                lines.append("%s %s %s %s" % (u, v, b, e))
        lines.extend(v for v in self.nodes if v not in linked)
        return "\n".join(lines) + "\n"


def parse_stream(text):
    """Parse the link-stream file format.

    Line 1 holds `alpha omega`; every following non-comment line is either
    `u v b e`, declaring a presence interval [b, e] for the pair uv, or a
    single node name `u`, declaring a node (which may have no link).
    `#` starts a comment.  Overlapping or touching intervals on one pair
    are merged silently.

    Each distinct time literal is parsed once.  The intervals are checked,
    merged and sorted as ints, in ticks of 1/L for L the lcm of the
    literals' denominators; they make the stream's integer twin
    (`LinkStream.lattice`) as they stand, and the stream takes the rational
    time of each tick from its literal.  If merging drops every bound that
    needs some factor of L, the stream's own L is smaller, and the twin is
    left to `lattice`.
    """
    header, links, nodes, values = None, [], set(), {}

    def time(literal):
        q = values.get(literal)
        if q is None:
            q = values[literal] = parse_time(literal)
        return q

    # Reading stops at the first line that fails a check of its own; the
    # checks that compare the times of a link run on the ticks after it,
    # so a failed one on an earlier line is reported first.
    error = None
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if header is None:
                if len(fields) != 2:
                    raise StreamError("line %d: expected `alpha omega`" % lineno)
                alpha, omega = time(fields[0]), time(fields[1])
                if alpha > omega:
                    raise StreamError("line %d: alpha > omega" % lineno)
                header = alpha, omega
            elif len(fields) == 1:
                nodes.add(fields[0])
            elif len(fields) != 4:
                raise StreamError("line %d: expected `u v b e` or `u`" % lineno)
            else:
                u, v, b, e = fields
                if u == v:
                    raise StreamError("line %d: self-link on node %r" % (lineno, u))
                time(b)
                time(e)
                links.append((lineno, (u, v) if u < v else (v, u), b, e))
    except StreamError as exc:
        error = exc
    except ValueError as exc:  # a bad time literal
        error = StreamError("line %d: %s" % (lineno, exc))
    if header is None:
        raise error or StreamError("missing `alpha omega` header line")
    scale = lcm(*(q.denominator for q in values.values()))
    ticks = {lit: q.numerator * (scale // q.denominator) for lit, q in values.items()}
    alpha, omega = (q.numerator * (scale // q.denominator) for q in header)
    raw = {}
    for lineno, key, b, e in links:
        tb, te = ticks[b], ticks[e]
        if tb > te:
            raise StreamError("line %d: interval with b > e" % lineno)
        if tb < alpha or te > omega:
            raise StreamError("line %d: interval [%s, %s] outside [%s, %s]"
                              % (lineno, values[b], values[e], *header))
        raw.setdefault(key, []).append((tb, te))
    if error is not None:
        raise error
    nodes = tuple(sorted(nodes.union(*raw)))  # and the two ends of each pair
    presence = {key: IntervalSet(ivs) for key, ivs in raw.items()}
    times = set()
    for ivs in presence.values():
        times.update(ivs.bounds())
    events = sorted(times)
    rational = {ticks[lit]: q for lit, q in values.items()}.__getitem__
    stream = LinkStream._of_parts(
        *header, nodes, {key: ivs._mapped(rational) for key, ivs in presence.items()},
        list(map(rational, events)))
    if gcd(scale, alpha, omega, *events) == 1:
        stream._twin = LinkStream._of_parts(alpha, omega, nodes, presence, events)
    return stream
