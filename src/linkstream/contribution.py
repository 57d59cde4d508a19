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
from .numbers import Q, exact_div
from .shortest_volumes import _vsp, vsp
from .stream import StreamError, TemporalNode
from .volumes import V_ZERO, _check_subset, vol_add, vol_div, vol_mul


class BoundaryList(NamedTuple):
    entries: list  # ordered (boundary time, accumulated Volume)


class ContributionResult(NamedTuple):
    value: object  # exact rational >= 0
    anchor: Optional[LatencyPair]


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
    """`_anchor` of the pair (u, w) at tv, once the nodes and tv are
    checked against the stream, with its reach bounds read from the lists
    u->v and v->w, filled for u and v."""
    stream.check_nodes(u, w)
    stream.check_temporal_node(tv)
    table = _lists(stream, (u, tv.node))
    x_max = _x_max(table[u][tv.node], tv.time)
    y_min = _y_min(table[tv.node][w], tv.time)
    if x_max is None or y_min is None:
        return None
    t, v = tv
    return _anchor(stream, u, w, ll, x_max, y_min, lambda x, u, y, w: (
        _vsp(stream, x, u, t, v), _vsp(stream, t, v, y, w)))


def _anchor(stream, u, w, ll, x_max, y_min, through):
    """(frame, vol_tv): the `_frame` of the anchor latency pair and the
    volume of its shortest fastest paths through a temporal node tv; None
    when no shortest fastest path from u to w involves tv.  through(x, u,
    y, w) gives the vsps from (x,u) to tv and from tv to (y,w), read by
    time (`_anchored`) or by slot (`betweenness._pass`, where t may be a
    `Poly` t_k + s on an open gap, with sizes polynomials in s).

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
    times.

    Of the contribution, only vol_tv depends on t.  Once the distance test
    passes, the frame is read from the stream's `_frames` by (u, w, anchor
    index), or built and kept there, when `ll` is the stream's own list
    (`latency_lists`); a caller's own list gets a frame that is not kept."""
    k = bisect_left(ll.arrivals, y_min)
    if k >= bisect_right(ll.starts, x_max):
        return None
    x, y = ll.starts[k], ll.arrivals[k]
    whole = _vsp(stream, x, u, y, w)
    before, after = through(x, u, y, w)
    if whole.distance != before.distance + after.distance:
        return None
    frames = stream._frames if ll is _lists(stream, (u,))[u][w] else {}
    frame = frames.get((u, w, k))
    if frame is None:
        frame = frames[u, w, k] = _frame(stream, u, w, x, y, ll, whole)
    # vol_tv is never zero: x <= x_max and y >= y_min make both factors
    # reachable, and every node a sweep reaches has a volume of positive size
    return frame, vol_mul(before.volume, after.volume)


def _frame(stream, u, w, x, y, ll, whole):
    """All of a contribution but vol_tv, for the anchor (x, y) of `ll`,
    whose vsp is `whole`: (anchor, middle, prev, next, smallest, weight),
    with middle the volume of `whole` and prev, next the boundary entries.
    Of the cells' denominators, middle + left + right, `smallest` has the
    smallest dimension d and the smallest size among those of dimension d
    (None when the lists have no cell); `weight` sums cell area /
    denominator size over the cells of dimension d, an int or a Fraction."""
    prev = prev_list(stream, u, w, x, y, ll, whole.distance).entries
    nxt = next_list(stream, u, w, x, y, ll, whole.distance).entries
    middle = whole.volume
    smallest, weight = None, 0
    s_hi = x
    for s_left, left in prev:
        a_lo = y
        for a_right, right in nxt:
            den = vol_add(vol_add(left, right), middle)
            if smallest is None or den.dim < smallest.dim:
                smallest, weight = den, 0
            if den.dim == smallest.dim:
                smallest = min(smallest, den)  # (size, dim): by size here
                weight += exact_div((s_hi - s_left) * (a_right - a_lo), den.size)
            a_lo = a_right
        s_hi = s_left
    return LatencyPair(x, y), middle, prev, nxt, smallest, weight


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
    found = _anchored(stream, u, w, tv, ll)
    if found is None:
        return Q(0)
    ((s, a), middle, prev, nxt, _, _), vol_tv = found
    left = _cell(prev, s, i, False)
    right = _cell(nxt, a, j, True)
    if left is None or right is None:
        return Q(0)
    return vol_div(vol_tv, vol_add(vol_add(left, right), middle))


def contribution(stream, u, w, tv, ll):
    """Exact contribution of the ordered pair (u, w) to the betweenness of
    the temporal node tv, with the anchor latency pair when non-zero."""
    found = _anchored(stream, u, w, tv, ll)
    return ContributionResult(Q(_value(found)), found and found[0][0])


def _value(found, limits=None):
    """The exact contribution of an `_anchor` result, 0 for None: the sum
    over the frame's cells of area * vol_div(vol_tv, denominator), an int
    or a Fraction.  With d the frame's smallest dimension, a vol_tv of a
    dimension above d, or of dimension d and a size above the smallest, is
    not the volume of a subset of every denominator: VolumeError, as from
    that cell's `vol_div`.  One below d gives 0 on every cell, and one of
    dimension d gives size * weight.  Given a list `limits`, vol_tv's size
    may be a `Poly` in s, which has no order: the size half of the check is
    left to the caller, and (size, smallest) appended to `limits`."""
    if found is None:
        return 0
    (*_, smallest, weight), vol_tv = found
    if smallest is None or vol_tv.dim < smallest.dim:
        return 0
    if vol_tv.dim > smallest.dim or (limits is None
                                     and vol_tv.size > smallest.size):
        _check_subset(vol_tv, smallest, "vol_div")
    if limits is not None:
        limits.append((vol_tv.size, smallest))
    return vol_tv.size * weight
