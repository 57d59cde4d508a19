"""Betweenness of temporal nodes: sum of pair contributions; its exact
polynomial on an open gap between event times; and the profile sampler
evaluating betweenness on a regular time grid for all nodes.
"""

from functools import partial
from itertools import chain, groupby
from math import floor
from typing import NamedTuple

from .contribution import _anchor, _value, _x_max, _y_min
from .latencies import _lists
from .numbers import Poly, Q, horner, on_ints, on_lattice
from .shortest_volumes import SweepTables, sweep_tables
from .stream import TemporalNode
from .volumes import Volume, _check_subset


class BetweennessProfile(NamedTuple):
    samples: list  # ordered (TemporalNode, exact rational)


def betweenness(stream, tv):
    """Betweenness of the temporal node tv: the total contribution of every
    ordered node pair (u, w), including u == w and pairs touching tv.node.

    The sum is one pass over the pairs (`_pass`) on the stream's
    integer-time twin (`LinkStream.lattice`), in ticks of 1/L, on the slot
    of the query tick, which its floor and ceiling place (the twin's L is
    1), comparing ints only.  Betweenness scales with the square of time,
    so the twin's total, an int or a Fraction, is divided by L**2.  On an
    open gap, the same pass gives the exact polynomial in t
    (`gap_polynomial`)."""
    stream.check_temporal_node(tv)
    twin, scale = stream.lattice()
    t = on_lattice(tv.time, scale)
    _, total, _ = _pass(twin, twin.slot(t), tv.node, t)
    return Q(total, scale * scale)


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

    So `betweenness`'s pass on the int twin (`_pass`), with no query time,
    computes it, carrying those sizes through the sweep step as `Poly`s.  A
    vol_tv of a dimension above the frame's smallest raises VolumeError
    here; its size needs a value of t, and `profile` checks it."""
    stream.check_nodes(v)
    if k & 1 or not 0 <= k <= 2 * len(stream._event_times):
        raise ValueError("slot %r is not an open gap" % (k,))
    twin, scale = stream.lattice()
    _, total, _ = _pass(twin, k, v)
    return Poly(Q(c * scale**j, scale * scale)
                for j, c in enumerate(total.coefficients))


def _pass(twin, k, v, time=None):
    """(t_k, total, limits) from one pass over the ordered node pairs (u, w)
    for node v on slot k of the int twin; t_k is the slot's event time, or
    the tick before its open gap (alpha on the first gap).  At a time of
    the slot, total is the twin's B(time, v).  With no time, it is the
    slot's piece: B(t_k, v) on an event slot, and on a gap the `Poly` in s
    of B(t_k + s, v), with limits holding (size, smallest) for each
    anchored pair whose vol_tv has the frame's smallest dimension: size
    must not exceed smallest.size at any t.  Elsewhere limits is empty, as
    the subset guard has run.

    Every time of the slot has the reach bounds of its two ends, t_k and
    t_hi, the event time after it (omega on the last gap), as the latency
    lists hold event times only: y_min once per destination w, x_max once
    per source u; a pair lacking either has no anchor.

    A pair (u, u) contributes 0.  A u->u list holds only instantaneous
    pairs (e, e), and the anchor needs e <= x_max <= t_k <= t <= t_hi <=
    y_min <= e, so t = e is an event time (on no gap, where t_k < t_hi)
    and the anchor's distance is 0: the distance test passes only for v ==
    u.  Both boundary scans then stop at once, as u is at distance 0 from
    itself on the gap beside e, except at a window end, where a scan gives
    that end alone; so a cell exists only when e is both alpha and omega,
    and its area is 0."""
    ev, n = twin._event_times, k // 2
    t_k = ev[n] if k & 1 else ev[n - 1] if n else twin.alpha
    t_hi = ev[n] if n < len(ev) else twin.omega
    poly = time is None and not k & 1  # a gap's piece, limits for `profile`
    total, limits = (Poly(()), []) if poly else (0, None)
    # B = 0 on the first and the last gap: no pair reaches into the one, or
    # out of the other, so no sweep from t_k + s is built there
    if poly and not 0 < n < len(ev):
        return t_k, total, limits
    if time is None:
        time = Poly((t_k, 1)) if poly else t_k
    through = partial(_through, twin, k, time, v,
                      SweepTables(twin, time, v, k) if poly else None)
    table = _lists(twin, twin.nodes)
    y_mins = {w: y for w, y in ((w, _y_min(table[v][w], t_hi))
                                for w in twin.nodes) if y is not None}
    for u in twin.nodes:
        x_max = _x_max(table[u][v], t_k)
        if x_max is None:
            continue
        lists = table[u]
        for w, y_min in y_mins.items():
            found = _anchor(twin, u, w, lists[w], x_max, y_min, through)
            value = found and _value(found, limits)
            if value:  # most pairs give 0: skip their additions
                total += value
    return t_k, total, limits or ()


def _through(twin, k, t, v, source, x, u, y, w):
    """`_anchor`'s reader in `_pass`, a partial (fewer live objects than a
    closure): the vsps from (x,u) to (t,v) by slot k and from (t,v) to (y,w)
    by y's slot, from `source` or the twin's own sweep, built on first read."""
    after = source or sweep_tables(twin, t, v)
    return (sweep_tables(twin, x, u).at(k, t, v, twin),
            after.at(twin.slot(y), y, w, twin))


def profile(stream, samples_per_node, threads=1):
    """Betweenness at t_i = alpha + i*(omega-alpha)/samples_per_node for
    i = 0..samples_per_node, for every node, in deterministic order.

    Values are exact.  The sample times are walked once, in order, in runs
    of one slot each, and each run is one pass per node (`_pass`): the
    value at an event time, or the gap's polynomial (`gap_polynomial`) at
    each time of a run on an open gap, so the cost grows with the number
    of slots, not with the number of samples.

    The work runs on the stream's int twin (`LinkStream.lattice`), as
    `betweenness` does, so a repeated profile reuses its tables.  With
    step = (omega - alpha) / samples_per_node in ticks and m its
    denominator, sample i sits at tick a_i / m, a_i = alpha*m +
    i*step.numerator: it is placed by ints (`_slot`), and evaluated in
    ints (`on_ints`), each value one Fraction over the piece's
    denominator times L**2.  The subset guard's size half is checked
    there too: each limit of a gap's pass at each sample.

    `threads` is accepted and ignored: the samples share the stream's
    tables, and evaluating them serially is the fastest way.  It stays
    because the benchmark (`perfbench/run.py`) passes `threads=1`."""
    if samples_per_node < 1:
        raise ValueError("samples_per_node must be >= 1")
    twin, scale = stream.lattice()
    step = Q(twin.omega - twin.alpha, samples_per_node)
    m = step.denominator
    ticks = [twin.alpha * m + i * step.numerator
             for i in range(samples_per_node + 1)]
    times = [Q(a, scale * m) for a in ticks]
    runs = [(k, list(run))
            for k, run in groupby(ticks, lambda a: _slot(twin, a, m))]
    samples = []
    for v in twin.nodes:
        values = chain.from_iterable(_run_values(twin, k, v, run, m, scale)
                                     for k, run in runs)
        samples.extend(zip((TemporalNode(t, v) for t in times), values))
    return BetweennessProfile(samples)


def _slot(twin, a, m):
    """The slot of the int twin holding a/m, for ints a and m > 0."""
    k = twin.slot(a // m)  # past an event tick a // m lies the gap after it
    return k + 1 if a % m and k & 1 else k


def _run_values(twin, k, v, ticks, m, scale):
    """Exact betweenness of (a/m, v) in the stream's units, for the
    ascending ticks a/m of slot k of the int twin (equal ticks included, as
    in a single-instant window), from the slot's piece (`_pass`): the value
    at an event time, whose subset guard has run, or the polynomial of a
    gap, with each limit checked at each tick, or once when constant."""
    t_k, total, limits = _pass(twin, k, v)
    guards = []
    for size, smallest in limits:
        size_ints, size_den = on_ints(size, m)
        # size(s/m) <= smallest.size iff its int numerator is at most this
        guard = size_ints, floor(smallest.size * size_den), size_den, smallest
        if len(size_ints) > 1:
            guards.append(guard)
        else:
            _check_size(0, *guard)
    ints, den = on_ints(total, m)
    den *= scale * scale
    values = []
    for a in ticks:
        s = a - t_k * m
        for guard in guards:
            _check_size(s, *guard)
        values.append(values[-1] if values and len(ints) < 2
                      else Q(horner(ints, s), den))
    return values


def _check_size(s, size_ints, cap, size_den, smallest):
    """The size half of the subset guard at s: VolumeError, as from a cell's
    `vol_div`, when the size is above smallest.size."""
    size = horner(size_ints, s)
    if size > cap:
        _check_subset(Volume(Q(size, size_den), smallest.dim), smallest, "vol_div")
