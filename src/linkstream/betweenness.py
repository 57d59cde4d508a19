"""Betweenness of temporal nodes: sum of pair contributions, and the
profile sampler evaluating betweenness on a regular time grid for all nodes.
"""

from itertools import chain, groupby
from typing import NamedTuple

from .contribution import _anchor, _value, _x_max, _y_min
from .latencies import _lists
from .numbers import Q, on_lattice
from .stream import TemporalNode


class BetweennessProfile(NamedTuple):
    samples: list  # ordered (TemporalNode, exact rational)


def betweenness(stream, tv):
    """Betweenness of the temporal node tv: the total contribution of every
    ordered node pair (u, w), including u == w and pairs touching tv.node.

    The anchor's reach bounds are placed once per destination w (y_min) and
    once per source u (x_max); a pair lacking either contributes 0.

    The sum runs on the stream's integer-time twin (`LinkStream.lattice`),
    with times in ticks of 1/L; betweenness scales with the square of time,
    so the twin's total is divided by L**2.  The twin's own L is 1: the
    floor and the ceiling of the query tick place it, comparing ints only."""
    stream.check_temporal_node(tv)
    twin, scale = stream.lattice()
    tv = TemporalNode(on_lattice(tv.time, scale), tv.node)
    table = _lists(twin, twin.nodes)
    t_lo, t_hi = twin._tick_bounds(tv.time)
    y_mins = {w: y for w, y in ((w, _y_min(table[tv.node][w], t_hi))
                                for w in twin.nodes) if y is not None}
    total = Q(0)
    for u in twin.nodes:
        x_max = _x_max(table[u][tv.node], t_lo)
        if x_max is None:
            continue
        lists = table[u]
        for w, y_min in y_mins.items():
            value = _value(_anchor(twin, u, w, tv, lists[w], x_max, y_min)).value
            if value:  # most pairs give 0: skip their Fraction additions
                total += value
    return total / (scale * scale)


def profile(stream, samples_per_node, threads=1):
    """Betweenness at t_i = alpha + i*(omega-alpha)/samples_per_node for
    i = 0..samples_per_node, for every node, in deterministic order.

    Values are exact, and the number of `betweenness` evaluations grows with
    the number of gaps between event times, not with the number of samples.
    Samples at event times are evaluated directly.  On the open gap of slot
    k, B(t, v) is a polynomial in t of degree at most D = 2*ecc_k(v), where
    ecc_k(v) is the eccentricity of v in the gap graph:

    - the gap graph, its distances and components, the latency lists, and so
      the anchor (x, y) of every pair, the reachability and distance tests,
      the prev/next boundary lists, cell areas and denominators are the
      same for every t in the gap; t enters only through vol_tv =
      vol((x,u)->(t,v)) * vol((t,v)->(y,w));
    - vol((x,u)->(t,v)) extends the sweep state at t_k across t - t_k with
      terms sigma*(t-t_k)^dp/dp! where dp is a gap distance to v, so
      dp <= ecc_k(v) (one-link-closer arrival terms have a lower dimension
      and vanish in the sum);
    - vol((t,v)->(y,w)) starts from the gap BFS of v, and its first sweep
      step crosses t_{k+1} - t with terms that need d(v,x) + dp = d(v,w'),
      so dp <= ecc_k(v) too; later steps are linear in its result.

    The sample times are walked once, in order, in runs of one slot each,
    and a gap's run is extended by forward differences (`_gap_values`).

    The evaluations run on an integer-time twin of the stream whose lattice
    also holds every sample time (`LinkStream.lattice(times)`), and each
    value is scaled back by 1/L**2, as in `betweenness`.

    `threads` is accepted for compatibility and ignored: the samples share
    the stream's tables, and evaluating them serially is the fastest way."""
    if samples_per_node < 1:
        raise ValueError("samples_per_node must be >= 1")
    span = stream.omega - stream.alpha
    times = [
        stream.alpha + Q(i) * span / samples_per_node
        for i in range(samples_per_node + 1)
    ]
    twin, scale = stream.lattice(times)
    ticks = [on_lattice(t, scale) for t in times]
    runs = [(k, list(run)) for k, run in groupby(ticks, twin.slot)]
    norm = scale * scale
    samples = []
    for v in twin.nodes:
        values = chain.from_iterable(_gap_values(twin, k, v, run)
                                     for k, run in runs)
        samples.extend((TemporalNode(t, v), value / norm)
                       for t, value in zip(times, values))
    return BetweennessProfile(samples)


def _direct(stream, v, ts):
    return [betweenness(stream, TemporalNode(t, v)) for t in ts]


def _degree_bound(stream, k, v):
    """Degree of B(., v) on the open gap of slot k is at most this (any
    bound serves an event slot, whose run holds one time, maybe repeated)."""
    return 2 * max(stream.bfs(k, v).dist.values())


def _gap_values(stream, k, v, ts):
    """Exact betweenness of (t, v) for the ascending, equally spaced times
    ts of slot k (equal times included, as in a single-instant window).

    With D the degree bound, a run of at most D + 2 times is evaluated
    directly.  A longer one is evaluated at its first D + 1 times, and
    their forward differences extend it to each later time with D
    additions: the D-th difference of a polynomial of degree D on equally
    spaced times is constant.  The extended value at the last time is
    checked against a direct evaluation there; should they differ, every
    time of the run is evaluated directly."""
    degree = _degree_bound(stream, k, v)
    if len(ts) <= degree + 2:
        return _direct(stream, v, ts)
    values = _direct(stream, v, ts[:degree + 1])
    diffs, row = [], values  # diffs[j]: j-th difference at the last value
    while row:
        diffs.append(row[-1])
        row = [b - a for a, b in zip(row, row[1:])]
    for _ in ts[degree + 1:]:
        for j in range(degree - 1, -1, -1):
            diffs[j] += diffs[j + 1]
        values.append(diffs[0])
    if values[-1] != betweenness(stream, TemporalNode(ts[-1], v)):
        return _direct(stream, v, ts)
    return values
