"""Contribution of a node pair (u, w) to the betweenness of a temporal node.

At most one latency pair (s, a) from u to w carries shortest fastest paths
through the queried temporal node.  Around that anchor, boundary scans
(backward over starts, forward over arrivals) produce the cell grid on which
the double time integral collapses to a finite sum of
cell_area * (volume through the node / total volume) terms.
"""

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import NamedTuple, Optional

from .latencies import LatencyPair, reaches
from .numbers import Q
from .shortest_volumes import vsp
from .stream import StreamError, TemporalNode
from .volumes import V_ZERO, vol_add, vol_div, vol_mul


class BoundaryList(NamedTuple):
    entries: list  # ordered (boundary time, accumulated Volume)


class ContributionResult(NamedTuple):
    value: object  # exact rational >= 0
    anchor: Optional[LatencyPair]


def _dist(stream, i, u, j, v):
    return vsp(stream, TemporalNode(i, u), TemporalNode(j, v)).distance


def _vol(stream, i, u, j, v):
    return vsp(stream, TemporalNode(i, u), TemporalNode(j, v)).volume


def _dist_gap_before(stream, s, u, w):
    """Distance from u to w in the constant graph on the open gap ending at
    s; None when s == alpha (no gap) or w unreachable there."""
    if s <= stream.alpha:
        return None
    k = stream.slot(s)
    return stream.bfs(k - (k & 1), u).dist.get(w)


def _dist_gap_after(stream, a, u, w):
    """Distance from u to w in the constant graph on the open gap starting
    at a; None when a == omega."""
    if a >= stream.omega:
        return None
    k = stream.slot(a)
    return stream.bfs(k + (k & 1), u).dist.get(w)


def prev_list(stream, u, w, s, a, ll):
    """Backward scan from the anchor (s, a): boundaries of the earlier
    equal-latency, equal-distance pairs down to the lower support bound,
    each with the volume of shortest fastest paths accumulated so far."""
    result = []
    vol = V_ZERO
    d_anchor = _dist(stream, s, u, a, w)
    if d_anchor is None:
        raise StreamError("(%s,%s) is not a latency pair from %r to %r"
                          % (s, a, u, w))
    if s == a and _dist_gap_before(stream, s, u, w) == d_anchor:
        return BoundaryList(result)
    for s2, a2 in reversed(list(ll)):
        if not s2 < s:
            continue
        lat = a2 - s2
        if lat < a - s:
            result.append((s2, vol))
            return BoundaryList(result)
        if lat == a - s:
            d2 = _dist(stream, s2, u, a2, w)
            if d2 < d_anchor:
                result.append((s2, vol))
                return BoundaryList(result)
            if d2 == d_anchor:
                result.append((s2, vol))
                if s2 == a2 and _dist_gap_before(stream, s2, u, w) == d_anchor:
                    return BoundaryList(result)
                vol = vol_add(vol, _vol(stream, s2, u, a2, w))
    result.append((stream.alpha, vol))
    return BoundaryList(result)


def next_list(stream, u, w, s, a, ll):
    """Forward dual of prev_list: arrival boundaries up to the upper support
    bound."""
    result = []
    vol = V_ZERO
    d_anchor = _dist(stream, s, u, a, w)
    if d_anchor is None:
        raise StreamError("(%s,%s) is not a latency pair from %r to %r"
                          % (s, a, u, w))
    if s == a and _dist_gap_after(stream, a, u, w) == d_anchor:
        return BoundaryList(result)
    for s2, a2 in ll:
        if not a2 > a:
            continue
        lat = a2 - s2
        if lat < a - s:
            result.append((a2, vol))
            return BoundaryList(result)
        if lat == a - s:
            d2 = _dist(stream, s2, u, a2, w)
            if d2 < d_anchor:
                result.append((a2, vol))
                return BoundaryList(result)
            if d2 == d_anchor:
                result.append((a2, vol))
                if s2 == a2 and _dist_gap_after(stream, a2, u, w) == d_anchor:
                    return BoundaryList(result)
                vol = vol_add(vol, _vol(stream, s2, u, a2, w))
    result.append((stream.omega, vol))
    return BoundaryList(result)


def _anchor_volume(stream, u, w, tv, ll):
    """Anchor latency pair whose shortest fastest paths involve tv, with the
    volume of those paths; (None, (0,0)) when no pair qualifies.

    The anchor is the first pair (x, y) with x <= t <= y such that (x,u)
    reaches tv and tv reaches (y,w); only its volumes need sweeps."""
    t, v = tv
    lo = bisect_left(ll, t, key=itemgetter(1))
    hi = bisect_right(ll, t, key=itemgetter(0))
    for k in range(lo, hi):
        x, y = ll[k]
        if reaches(stream, (x, u), tv) and reaches(stream, tv, (y, w)):
            vol_tv = V_ZERO
            if (
                _dist(stream, x, u, y, w)
                == _dist(stream, x, u, t, v) + _dist(stream, t, v, y, w)
            ):
                vol_tv = vol_mul(
                    _vol(stream, x, u, t, v), _vol(stream, t, v, y, w)
                )
            return LatencyPair(x, y), vol_tv
    return None, V_ZERO


def cell_ratio(stream, u, w, tv, ll, i, j):
    """Fraction of the shortest fastest paths from (i, u) to (j, w) that
    involve tv, evaluated on the boundary-list cell holding (i, j).

    Points exactly on the outer support boundary use the outermost cell
    (the closure convention; the boundary itself has measure zero).
    """
    anchor, vol_tv = _anchor_volume(stream, u, w, tv, ll)
    if anchor is None or vol_tv.is_zero():
        return Q(0)
    s, a = anchor
    if not (i <= s and j >= a):
        return Q(0)
    prev = prev_list(stream, u, w, s, a, ll)
    nxt = next_list(stream, u, w, s, a, ll)
    if not prev.entries or not nxt.entries:
        return Q(0)

    left = None
    s_hi = s
    for s_left, acc in prev.entries:
        if s_left < i <= s_hi:
            left = acc
            break
        s_hi = s_left
    if left is None:
        s_min, acc = prev.entries[-1]
        if i < s_min:
            return Q(0)
        left = acc  # i == lower support bound

    right = None
    a_lo = a
    for a_right, acc in nxt.entries:
        if a_lo <= j < a_right:
            right = acc
            break
        a_lo = a_right
    if right is None:
        a_max, acc = nxt.entries[-1]
        if j > a_max:
            return Q(0)
        right = acc  # j == upper support bound

    middle = _vol(stream, s, u, a, w)
    return vol_div(vol_tv, vol_add(vol_add(left, right), middle))


def contribution(stream, u, w, tv, ll):
    """Exact contribution of the ordered pair (u, w) to the betweenness of
    the temporal node tv, with the anchor latency pair when non-zero."""
    stream.check_temporal_node(tv)
    anchor, vol_tv = _anchor_volume(stream, u, w, tv, ll)
    if vol_tv.is_zero():
        return ContributionResult(Q(0), None)
    s, a = anchor
    middle = _vol(stream, s, u, a, w)
    prev = prev_list(stream, u, w, s, a, ll)
    nxt = next_list(stream, u, w, s, a, ll)
    total = Q(0)
    s_hi = s
    for s_left, left in prev.entries:
        a_lo = a
        for a_right, right in nxt.entries:
            denom = vol_add(vol_add(left, right), middle)
            ratio = vol_div(vol_tv, denom)
            if ratio:
                total += (s_hi - s_left) * (a_right - a_lo) * ratio
            a_lo = a_right
        s_hi = s_left
    return ContributionResult(total, anchor)
