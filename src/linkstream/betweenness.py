"""Betweenness of temporal nodes: sum of pair contributions; its exact
polynomial on an open gap between event times; and the profile sampler
evaluating betweenness on a regular time grid for all nodes.
"""

from itertools import chain, groupby
from math import floor
from typing import NamedTuple

from .contribution import _anchor, _value, _x_max, _y_min
from .latencies import _lists
from .numbers import Poly, Q, horner, on_ints, on_lattice
from .shortest_volumes import SweepTables, VspResult, sweep_tables
from .stream import TemporalNode
from .volumes import Volume, _check_subset


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
    floor and the ceiling of the query tick place it, comparing ints only.
    The pair values are ints or Fractions, and so is their sum until it is
    divided.  On an open gap, the same pairs and anchors give the exact
    polynomial in t (`gap_polynomial`)."""
    stream.check_temporal_node(tv)
    twin, scale = stream.lattice()
    tv = TemporalNode(on_lattice(tv.time, scale), tv.node)
    total = 0
    for found in _anchors(twin, tv, *twin._tick_bounds(tv.time)):
        value = _value(found)
        if value:  # most anchored pairs give 0: skip their additions
            total += value
    return Q(total, scale * scale)


def _anchors(twin, tv, t_lo, t_hi, through=None):
    """The `_anchor` results, None left out, of every ordered pair (u, w)
    for a temporal node tv = (t, v) of the int twin, with t_lo <= t <= t_hi
    the ticks that place it: the reach bounds are placed once per
    destination w (y_min) and once per source u (x_max), and a pair lacking
    either has no anchor."""
    v = tv.node
    table = _lists(twin, twin.nodes)
    y_mins = {w: y for w, y in ((w, _y_min(table[v][w], t_hi))
                                for w in twin.nodes) if y is not None}
    frames = twin._frames  # the lists are the twin's own
    for u in twin.nodes:
        x_max = _x_max(table[u][v], t_lo)
        if x_max is None:
            continue
        lists = table[u]
        for w, y_min in y_mins.items():
            found = _anchor(twin, u, w, tv, lists[w], x_max, y_min, frames,
                            through)
            if found is not None:
                yield found


def gap_polynomial(stream, k, v):
    """B(t_k + s, v) for t = t_k + s on the open gap of slot k, as the `Poly`
    in s with its exact coefficients, in the stream's own time units: t_k
    is the event time before the gap (alpha on the first gap), and k is an
    even slot, at most twice the number of event times.

    The paper holds the graph fixed between event times, so on the open gap
    of slot k, B(t, v) is a polynomial in t of degree at most 2*ecc_k(v),
    ecc_k(v) the eccentricity of v in the gap graph:

    - the gap graph, its distances and components, the latency lists, and so
      the anchor (x, y) of every pair, the reachability and distance tests,
      the prev/next boundary lists, cell areas and denominators are the
      same for every t in the gap; t enters only through vol_tv =
      vol((x,u)->(t,v)) * vol((t,v)->(y,w));
    - vol((x,u)->(t,v)) extends the sweep state at t_k across s with terms
      sigma*s^dp/dp! where dp is a gap distance to v, so dp <= ecc_k(v)
      (one-link-closer arrival terms have a lower dimension and vanish in
      the sum);
    - vol((t,v)->(y,w)) starts from the gap BFS of v, and its first sweep
      step crosses t_{k+1} - t with terms that need d(v,x) + dp = d(v,w'),
      so dp <= ecc_k(v) too; later steps are linear in its result.

    So one pass over the pairs computes it: `betweenness`'s own pairs and
    anchors (`_anchors`), at the reach bounds of t_k and t_{k+1}, with the
    sizes of those two crossings carried as polynomials in s through the
    sweep step (`SweepTables.on_gap`, and a sweep from the source t_k + s).
    It runs on the integer-time twin, as `betweenness` does.  The subset
    guard of `_value` is split: a vol_tv of a dimension above the frame's
    smallest raises VolumeError here; its size needs a value of t, and
    `profile` checks it at each of its samples."""
    stream.check_nodes(v)
    if k & 1 or not 0 <= k <= 2 * len(stream._event_times):
        raise ValueError("slot %r is not an open gap" % (k,))
    twin, scale = stream.lattice()
    _, total, _ = _gap_pass(twin, k, v)
    return Poly(Q(c * scale**j, scale * scale)
                for j, c in enumerate(total.coefficients))


def _gap_pass(twin, k, v):
    """(t_k, total, limits) for the open gap of slot k of the int twin:
    t_k is the tick before the gap (alpha on the first gap), total the
    `Poly` in s of the twin's B(t_k + s, v), and limits holds (size,
    smallest) for each anchored pair whose vol_tv has the frame's smallest
    dimension: size, a `Poly` in s or a number, must not exceed
    smallest.size at any t."""
    ev, n = twin._event_times, k // 2
    # B = 0 on the first and the last gap: no pair reaches into the one, or
    # out of the other
    if not 0 < n < len(ev):
        return (ev[n - 1] if n else twin.alpha), Poly(()), []
    t_k = ev[n - 1]
    time = Poly((t_k, 1))
    source = SweepTables(twin, time, v, k)

    def through(x, u, y, w):
        dist, vol = sweep_tables(twin, x, u).on_gap(n, time)
        # y is an event time: its state is read on the table by index, so
        # y is never compared with the source time t_k + s, which has no
        # order (perfbench's tracer of `state_at` bisects a table's times)
        dist2, vol2 = source._state(twin._place(y)[0] - n)
        return VspResult(vol[v], dist[v]), VspResult(vol2[w], dist2[w])

    total, limits = Poly(()), []
    for (*_, smallest, weight), vol_tv in _anchors(
            twin, TemporalNode(time, v), t_k, ev[n], through):
        if smallest is None:
            continue
        if vol_tv.dim > smallest.dim:  # not a subset at any t of the gap
            _check_subset(vol_tv, smallest, "vol_div")
        if vol_tv.dim == smallest.dim:
            total += vol_tv.size * weight
            limits.append((vol_tv.size, smallest))
    return t_k, total, limits


def profile(stream, samples_per_node, threads=1):
    """Betweenness at t_i = alpha + i*(omega-alpha)/samples_per_node for
    i = 0..samples_per_node, for every node, in deterministic order.

    Values are exact.  The sample times are walked once, in order, in runs
    of one slot each.  A sample at an event time is evaluated directly; a
    run on an open gap is the value of the gap's polynomial
    (`gap_polynomial`) at each of its times, so the cost grows with the
    number of gaps, not with the number of samples.

    The work runs on an integer-time twin of the stream whose lattice also
    holds every sample time (`LinkStream.lattice`, given the sample
    spacing), so the sample ticks are ints, alpha's tick plus i spacings.
    Each gap polynomial is taken over a common denominator and evaluated at
    the ticks in int arithmetic, and each value is one Fraction, over that
    denominator times L**2, as `betweenness` divides by L**2.  The subset
    guard's size half is checked there too: each limit of the gap pass at
    each tick.

    `threads` is accepted and ignored: the samples share the stream's
    tables, and evaluating them serially is the fastest way.  It stays
    because the benchmark (`perfbench/run.py`) passes `threads=1`."""
    if samples_per_node < 1:
        raise ValueError("samples_per_node must be >= 1")
    spacing = Q(stream.omega - stream.alpha, samples_per_node)
    twin, scale = stream.lattice([spacing])
    step = spacing.numerator * (scale // spacing.denominator)
    ticks = [twin.alpha + i * step for i in range(samples_per_node + 1)]
    times = [Q(tick, scale) for tick in ticks]
    runs = [(k, list(run)) for k, run in groupby(ticks, twin.slot)]
    norm = scale * scale
    samples = []
    for v in twin.nodes:
        values = chain.from_iterable(_run_values(twin, k, v, run, norm)
                                     for k, run in runs)
        samples.extend(zip((TemporalNode(t, v) for t in times), values))
    return BetweennessProfile(samples)


def _run_values(twin, k, v, ticks, norm):
    """Exact betweenness of (t, v), divided by norm, for the ascending ticks
    t of slot k of the int twin (equal ticks included, as in a
    single-instant window): directly at an event time, otherwise from
    `_gap_pass`, with each limit checked at each tick, or once when its
    size is constant.  A constant polynomial gives one Fraction for the
    run."""
    if k & 1:
        return [betweenness(twin, TemporalNode(t, v)) / norm for t in ticks]
    t_k, total, limits = _gap_pass(twin, k, v)
    guards = []
    for size, smallest in limits:
        size_ints, size_den = on_ints(size)
        # size(s) <= smallest.size iff its int numerator is at most this
        guard = size_ints, floor(smallest.size * size_den), size_den, smallest
        if len(size_ints) > 1:
            guards.append(guard)
        else:
            _check_size(0, *guard)
    ints, den = on_ints(total)
    values = []
    for t in ticks:
        s = t - t_k
        for guard in guards:
            _check_size(s, *guard)
        values.append(values[-1] if values and len(ints) < 2
                      else Q(horner(ints, s), den * norm))
    return values


def _check_size(s, size_ints, cap, size_den, smallest):
    """The size half of the subset guard at s: VolumeError, as from a cell's
    `vol_div`, when the size is above smallest.size."""
    size = horner(size_ints, s)
    if size > cap:
        _check_subset(Volume(Q(size, size_den), smallest.dim), smallest, "vol_div")
