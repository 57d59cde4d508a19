"""Contribution of a node pair (u, w) to the betweenness of a temporal node.

At most one latency pair (s, a) from u to w carries shortest fastest paths
through the queried temporal node (t, v).  Reaching is monotone at both ends,
so that anchor is found by bisecting the latency lists u->v, v->w and u->w,
with no search over candidate pairs; `betweenness` bisects u->v once per
source u (x_max) and v->w once per destination w (y_min).  Around the
anchor, boundary scans (backward over starts, forward over arrivals) produce
the cell grid on which the double time integral collapses to a finite sum
of cell_area * (volume through the node / total volume) terms.

The backward scan and cell lookup mirror the forward ones under time
reversal, so each is written once, with a direction.
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional

from .latencies import LatencyPair, _lists
from .numbers import Q
from .shortest_volumes import _vsp, vsp
from .stream import StreamError, TemporalNode
from .volumes import V_ZERO, vol_add, vol_div, vol_mul


class BoundaryList(NamedTuple):
    entries: list  # ordered (boundary time, accumulated Volume)


class ContributionResult(NamedTuple):
    value: object  # exact rational >= 0
    anchor: Optional[LatencyPair]


_NO_CONTRIBUTION = ContributionResult(Q(0), None)


def _gap_dist(stream, t, u, w, forward):
    """Distance from u to w in the constant graph on the open gap after t
    (forward) or before t; None when t is the window end on that side (no
    gap) or w is unreachable there."""
    k = stream.gap(t, forward)
    return None if k is None else stream.bfs(k, u).dist.get(w)


def _scan(stream, u, w, s, a, ll, forward, d_anchor):
    """Boundaries of the equal-latency, equal-distance pairs beyond the
    anchor (s, a), up to the support bound, each with the volume of shortest
    fastest paths accumulated so far.  The direction picks the pair order,
    the boundary coordinate, the gap side and the window end.  `d_anchor`
    is the anchor's distance; None asks the sweep for it, which also
    validates the anchor's temporal nodes, and then the anchor must be a
    pair of `ll` or an instantaneous (s, s) with w joined to u at s."""
    if d_anchor is None:
        d_anchor = vsp(stream, TemporalNode(s, u), TemporalNode(a, w)).distance
        i = bisect_left(ll.starts, s)
        listed = i < len(ll.starts) and (ll.starts[i], ll.arrivals[i]) == (s, a)
        if d_anchor is None or not (listed or s == a):
            raise StreamError("(%s,%s) is not a latency pair from %r to %r"
                              % (s, a, u, w))
    starts, arrivals = ll.starts, ll.arrivals
    if forward:
        k = bisect_right(arrivals, a)
        pairs = zip(starts[k:], arrivals[k:])
        side, end = 1, stream.omega
    else:
        k = bisect_left(starts, s)
        pairs = zip(reversed(starts[:k]), reversed(arrivals[:k]))
        side, end = 0, stream.alpha
    result = []
    vol = V_ZERO
    if s == a and _gap_dist(stream, s, u, w, forward) == d_anchor:
        return BoundaryList(result)
    for pair in pairs:
        s2, a2 = pair
        lat = a2 - s2
        if lat < a - s:
            result.append((pair[side], vol))
            return BoundaryList(result)
        if lat == a - s:
            r = _vsp(stream, s2, u, a2, w)
            if r.distance < d_anchor:
                result.append((pair[side], vol))
                return BoundaryList(result)
            if r.distance == d_anchor:
                result.append((pair[side], vol))
                if s2 == a2 and _gap_dist(stream, s2, u, w, forward) == d_anchor:
                    return BoundaryList(result)
                vol = vol_add(vol, r.volume)
    result.append((end, vol))
    return BoundaryList(result)


def prev_list(stream, u, w, s, a, ll, d_anchor=None):
    """Backward scan from the anchor (s, a), whose distance is d_anchor:
    start boundaries down to the lower support bound alpha."""
    return _scan(stream, u, w, s, a, ll, False, d_anchor)


def next_list(stream, u, w, s, a, ll, d_anchor=None):
    """Forward scan from the anchor (s, a), whose distance is d_anchor:
    arrival boundaries up to the upper support bound omega."""
    return _scan(stream, u, w, s, a, ll, True, d_anchor)


def _x_max(to_v, t_lo):
    """x_max of `_anchor` from the u->v list, or None; t_lo bounds t."""
    i = bisect_right(to_v.arrivals, t_lo)
    return to_v.starts[i - 1] if i else None


def _y_min(from_v, t_hi):
    """y_min of `_anchor` from the v->w list, or None; t_hi bounds t."""
    j = bisect_left(from_v.starts, t_hi)
    return from_v.arrivals[j] if j < len(from_v.starts) else None


def _anchored(stream, u, w, tv, ll):
    """`_anchor`, its reach bounds read from the filled lists u->v, v->w."""
    x_max = _x_max(stream._latency_lists[u][tv.node], tv.time)
    y_min = _y_min(stream._latency_lists[tv.node][w], tv.time)
    if x_max is None or y_min is None:
        return None
    return _anchor(stream, u, w, tv, ll, x_max, y_min)


def _anchor(stream, u, w, tv, ll, x_max, y_min):
    """(anchor, vol_tv, middle, prev entries, next entries): the anchor
    latency pair, the volume of its shortest fastest paths through tv, the
    volume of all of them, and its boundary lists; None when no shortest
    fastest path from u to w involves tv.

    The anchor is the first pair (x, y) of `ll` such that (x,u) reaches tv
    and tv reaches (y,w).  Paths may wait, so reaching is monotone at both
    ends: (x,u) reaches tv iff x <= x_max, the start of the last u->v pair
    arriving by t, and tv reaches (y,w) iff y >= y_min, the arrival of the
    first v->w pair starting at or after t.  No snapshot BFS is needed: x
    and y are event times, and nodes connected at t, or on the open gap
    holding t, are also connected at the event times that bound it, where
    the lists hold an instantaneous pair (a node's list to itself holds
    every event time).  x_max <= t <= y_min, and the pairs meeting both
    bounds form one range, so the anchor is its first pair.  x_max and
    y_min place t among the event times, so every comparison is on event
    times."""
    k = bisect_left(ll.arrivals, y_min)
    if k >= bisect_right(ll.starts, x_max):
        return None
    t, v = tv
    x, y = ll.starts[k], ll.arrivals[k]
    whole = _vsp(stream, x, u, y, w)
    before = _vsp(stream, x, u, t, v)
    after = _vsp(stream, t, v, y, w)
    if whole.distance != before.distance + after.distance:
        return None
    vol_tv = vol_mul(before.volume, after.volume)
    if vol_tv.is_zero():
        return None
    prev = prev_list(stream, u, w, x, y, ll, whole.distance)
    nxt = next_list(stream, u, w, x, y, ll, whole.distance)
    return LatencyPair(x, y), vol_tv, whole.volume, prev.entries, nxt.entries


def _cell(entries, start, x, forward):
    """Accumulated volume of the cell holding x in a boundary list scanned
    from `start`; None when x lies outside the list's cells.  x on the last
    boundary belongs to the outermost cell."""
    sign = 1 if forward else -1
    lo, x, acc = sign * start, sign * x, None
    for b, acc in entries:
        if lo <= x < sign * b:
            return acc
        lo = sign * b
    return acc if x == lo else None


def cell_ratio(stream, u, w, tv, ll, i, j):
    """Fraction of the shortest fastest paths from (i, u) to (j, w) that
    involve tv, evaluated on the boundary-list cell holding (i, j).

    Points exactly on the outer support boundary use the outermost cell
    (the closure convention; the boundary itself has measure zero).
    """
    stream.check_nodes(u, w)
    stream.check_temporal_node(tv)
    _lists(stream, (u, tv.node))
    found = _anchored(stream, u, w, tv, ll)
    if found is None:
        return Q(0)
    (s, a), vol_tv, middle, prev, nxt = found
    left = _cell(prev, s, i, False)
    right = _cell(nxt, a, j, True)
    if left is None or right is None:
        return Q(0)
    return vol_div(vol_tv, vol_add(vol_add(left, right), middle))


def contribution(stream, u, w, tv, ll):
    """Exact contribution of the ordered pair (u, w) to the betweenness of
    the temporal node tv, with the anchor latency pair when non-zero."""
    stream.check_nodes(u, w)
    stream.check_temporal_node(tv)
    _lists(stream, (u, tv.node))
    return _value(_anchored(stream, u, w, tv, ll))


def _value(found):
    """ContributionResult of an `_anchor` result: its cell sum."""
    if found is None:
        return _NO_CONTRIBUTION
    anchor, vol_tv, middle, prev, nxt = found
    s, a = anchor
    total = Q(0)
    s_hi = s
    for s_left, left in prev:
        a_lo = a
        for a_right, right in nxt:
            denom = vol_add(vol_add(left, right), middle)
            ratio = vol_div(vol_tv, denom)
            if ratio:
                total += (s_hi - s_left) * (a_right - a_lo) * ratio
            a_lo = a_right
        s_hi = s_left
    return ContributionResult(total, anchor)
