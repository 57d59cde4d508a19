"""Link streams: nodes linked over unions of disjoint closed time intervals.

A stream lives on a window [alpha, omega]; each unordered node pair carries a
normalized set of maximal presence intervals.  Event times are the interval
bounds; the instantaneous graph only changes there.  `LinkStream(...)` and
`parse_stream` build a stream and its int twin by one routine, `_build`.

The event times cut the window into slots, on each of which the graph is
constant: with n event times, slot 2i+1 is event time i, slot 2i is the open
gap before it, and slot 2n is the gap after the last one (with none, slot 0
covers the window).  One routine turns a time into int ticks,
`LinkStream._tick_bounds`, and one places it, `_place`, which rejects a
time outside the window; `slot`, `gap`, `graph_at`, the temporal-node
check and a sweep's reads all go through it.  Other modules read graphs and
tables by slot, and a walk over the event times reads slot 2i+1 at i.
"""

from bisect import bisect_right
from math import gcd, lcm
from typing import NamedTuple

from .numbers import Q, as_q, parse_time
from .static_graph import bfs_counts, connected_components


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
        """The stream on [alpha, omega] of `nodes` linked over `presence`,
        which maps node pairs, in either order, to intervals (b, e).  The
        first failed check raises: a float time (TypeError), a self-link or
        an unknown node, alpha > omega, then `_build`'s, named by the pair."""
        links = [(pair, tuple(sorted(pair)), b, e)
                 for pair, ivs in presence.items() for b, e in ivs]
        values = {}
        for t in (alpha, omega, *(t for _, _, b, e in links for t in (b, e))):
            if not isinstance(t, (int, Q)):
                raise TypeError("cannot convert %r to an exact rational" % (t,))
            values.setdefault(t, t)
        nodes = set(nodes)
        for u, v in presence:
            if u == v:
                raise StreamError("self-link on node %r" % u)
            if u not in nodes or v not in nodes:
                raise StreamError("link on unknown node in pair %r" % ((u, v),))
        if alpha > omega:
            raise StreamError("alpha > omega")
        self._set_parts(*_build((alpha, omega), nodes, links, values, "pair %r"))

    @classmethod
    def _of_parts(cls, alpha, omega, nodes, presence, event_times, twin=None):
        """The stream of parts that are already checked and normalized, as
        `_build` gives them: sorted `nodes`, `presence` mapping ordered pairs
        to non-empty IntervalSets inside [alpha, omega], the sorted distinct
        bounds of those sets as `event_times`, and the `twin` at the
        stream's own L, None when the stream's times are ints (its own)."""
        stream = cls.__new__(cls)
        stream._set_parts(alpha, omega, nodes, presence, event_times, twin)
        return stream

    def _set_parts(self, alpha, omega, nodes, presence, event_times, twin):
        self.alpha, self.omega, self.nodes = alpha, omega, nodes
        self.presence, self._event_times = presence, event_times
        # L, and the ticks t * L of the window ends and the event times
        bounds = (alpha, omega, *event_times)
        self._scale = scale = lcm(*(t.denominator for t in bounds))
        ticks = [t.numerator * (scale // t.denominator) for t in bounds]
        self._end_ticks, self._event_ticks = ticks[:2], ticks[2:]
        # Tables that do not depend on a query's source, filled on first use
        # and shared by every query.  The slot tables (slot -> SnapshotGraph,
        # one per link set; its graphs -> components of 2+ nodes; (graph,
        # node) -> BfsResult) are also shared with every twin (`lattice`):
        # the slots are the same, and the int twin builds them, so no
        # Fraction is hashed.
        self._snapshots, self._components, self._bfs = (
            ([], {}, {}) if twin is None
            else (twin._snapshots, twin._components, twin._bfs))
        self._sweeps = {}  # (time, node) -> shortest_volumes.SweepTables
        self._frames = {}  # (u, w, anchor index) -> contribution._frame result
        self._latency_lists = {}  # source -> latencies.latency_lists result
        self._twin = twin  # lattice() at _scale; None: the stream itself

    # -- basic queries ----------------------------------------------------

    def segment_count(self):
        """Total number of maximal presence intervals."""
        return sum(len(ivs) for ivs in self.presence.values())

    def event_times(self):
        return list(self._event_times)

    def graph_at(self, t):
        """The instantaneous graph G_t."""
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

    def _place(self, t):
        """(n, on): the number n of event times at or before t, and whether
        t is one of them; StreamError if t lies outside [alpha, omega].  t is
        placed among the int window and event ticks by the floor and the
        ceiling of t * L (`_tick_bounds`), so it is compared as ints."""
        lo, hi = self._tick_bounds(t)
        alpha, omega = self._end_ticks
        if lo < alpha or hi > omega:
            raise StreamError("time %s outside [%s, %s]" % (t, self.alpha, self.omega))
        ev = self._event_ticks
        n = bisect_right(ev, lo)
        return n, lo == hi and n > 0 and ev[n - 1] == lo

    def slot(self, t):
        """Index of the slot holding time t: 2i+1 at event time i, 2i on the
        open gap before it.  alpha and omega off the event times lie in the
        first and the last gap."""
        n, on = self._place(t)
        return 2 * n - on

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
        built in one pass over the sorted interval endpoints of the int
        twin on first use."""
        if not self._snapshots:
            ints = self._twin or self
            starts, ends = {}, {}
            for pair, ivs in ints.presence.items():
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

            slots = self._snapshots
            slots.append(graph())
            for t in ints._event_times:
                active.update(dict.fromkeys(starts.get(t, ())))
                slots.append(graph())
                for pair in ends.get(t, ()):
                    del active[pair]
                slots.append(graph())
        return self._snapshots[k]

    def components(self, k):
        """`connected_components` of the graph of slot k: its components of
        two or more nodes (cached per graph)."""
        g = self.snapshot(k)
        comps = self._components.get(g)
        if comps is None:
            comps = self._components[g] = connected_components(g)
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
        self._place(tn.time)
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
        The twin at the stream's own L is built with the stream (`_build`):
        an int copy, or the stream itself when its times are ints, which it
        keeps from the first call only (built so, it would be freed by the
        cycle collector alone).  A twin for a larger L is built anew on each
        call, by multiplying the ticks of that one."""
        scale, twin = self.scale(times), self._twin or self
        self._twin = twin
        if scale == self._scale:
            return twin, scale
        factor = scale // self._scale
        parts = twin.alpha, twin.omega, twin.nodes, twin.presence, twin._event_times
        wide = LinkStream._of_parts(*_mapped(lambda t: t * factor, *parts))
        wide._snapshots, wide._components, wide._bfs = (
            self._snapshots, self._components, self._bfs)
        return wide, scale

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

    Each distinct time literal is parsed once, into a `Fraction`, and the
    stream and its integer twin (`LinkStream.lattice`) are built from the
    literals' ticks by `_build`, as `LinkStream(...)` builds them from its
    times.  Every error names its line; with several bad lines, the first
    one in the file is reported.
    """
    header, links, nodes, values = None, [], set(), {}

    def time(literal):
        q = values.get(literal)
        if q is None:
            q = values[literal] = parse_time(literal)
        return q

    # Reading stops at the first line that fails a check of its own; the
    # checks that compare the times of a link run on the ticks after it,
    # in `_build`, so a failed one on an earlier line is reported first.
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
    parts = _build(header, nodes, links, values, "line %d")
    if error is not None:
        raise error
    return LinkStream._of_parts(*parts)


def _build(header, nodes, links, values, label):
    """The parts of a stream, for `LinkStream._of_parts`: the one routine
    that checks interval bounds, against each other and the window.

    `values` maps keys to `int` or `Fraction` times (the literals of
    `parse_stream`, the times themselves for `LinkStream`); `header` is
    (alpha, omega), alpha <= omega; each link is (where, ordered pair, b,
    e), b and e keys of `values`.  On ticks of 1/L, L the lcm of the
    denominators, the first link with b > e or outside the window raises
    StreamError, led by `label % (where,)`; each pair's intervals are
    merged and sorted (`IntervalSet`); each tick maps back to its value, so
    a time given as an `int` and as a `Fraction` takes the first one's type.
    The twin is the stream itself when every value is an `int`, otherwise
    the stream of ticks, divided by their gcd when merging dropped every
    bound that needs some factor of L."""
    scale = lcm(*(q.denominator for q in values.values()))
    ticks = {key: q.numerator * (scale // q.denominator) for key, q in values.items()}
    alpha, omega = (q.numerator * (scale // q.denominator) for q in header)
    raw = {}
    for where, key, b, e in links:
        tb, te = ticks[b], ticks[e]
        if tb > te:
            raise StreamError("%s: interval with b > e" % (label % (where,)))
        if tb < alpha or te > omega:
            raise StreamError("%s: interval [%s, %s] outside [%s, %s]"
                              % (label % (where,), values[b], values[e], *header))
        raw.setdefault(key, []).append((tb, te))
    nodes = tuple(sorted(nodes.union(*raw)))  # and the two ends of each pair
    presence = {key: IntervalSet(ivs) for key, ivs in raw.items()}
    times = sorted({t for ivs in presence.values() for t in ivs.bounds()})
    ticked = (alpha, omega, nodes, presence, times)
    if all(type(q) is int for q in values.values()):
        return (*ticked, None)
    rational = {ticks[key]: q for key, q in values.items()}.__getitem__
    g = gcd(scale, alpha, omega, *times)  # the stream's own L is scale // g
    twin = ticked if g == 1 else _mapped(lambda t: t // g, *ticked)
    return (*_mapped(rational, *ticked), LinkStream._of_parts(*twin))


def _mapped(f, alpha, omega, nodes, presence, events):
    """The parts of a stream with every time t replaced by f(t), for a
    strictly increasing f, which keeps each pair's intervals sorted,
    disjoint and apart: nothing is checked, sorted or merged again."""
    mapped = {}
    for pair, ivs in presence.items():
        mapped[pair] = IntervalSet.__new__(IntervalSet)
        mapped[pair].intervals = [(f(b), f(e)) for b, e in ivs.intervals]
    return f(alpha), f(omega), nodes, mapped, list(map(f, events))
