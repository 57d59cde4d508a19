"""Brute-force grid oracle for validation.

Time is discretized on a uniform grid; temporal paths are enumerated by
dynamic programming over (grid time, node) states.  Everything here is
independent of the volume arithmetic and the sweep algorithms: the oracle
only reads the stream model and re-implements its own static-graph
subroutines, so agreement with the exact pipeline is meaningful evidence.

Counts converge to exact sizes as count * step^dim when the step shrinks;
durations and path lengths are exact once the step divides the event-time
lattice.
"""

from bisect import bisect_right, insort
from fractions import Fraction
from operator import add, itemgetter

MAX_GRID_POINTS = 50_000  # the largest grid one oracle call will scan
# The most (first crossing, last crossing) cells the Riemann sums of one
# call may walk: points * (points + 1) / 2 per ordered node pair.  A cell
# cost from 25 ns to 1.6 us in measurements on 2 CPUs under Python 3.11, so
# a call at the limit takes up to about half a minute.
MAX_GRID_CELLS = 20_000_000


class GridError(ValueError):
    pass


def _exact(t):
    if not isinstance(t, (int, Fraction)):  # a float has no exact grid place
        raise TypeError("cannot convert %r to an exact rational" % (t,))
    return Fraction(t)


class GridSpec:
    """Uniform time grid of a given exact step; every event time and query
    time must be a whole multiple of the step."""

    __slots__ = ("step", "_num", "_den")

    def __init__(self, step):
        step = _exact(step)
        if step <= 0:
            raise GridError("grid step must be > 0, got %s" % step)
        self.step = step
        self._num, self._den = step.numerator, step.denominator

    def index(self, t):
        """t / step, an int; computed on the numerators and denominators of
        t and the step, so no rational is built."""
        if not isinstance(t, (int, Fraction)):  # a float has no exact grid place
            raise TypeError("cannot convert %r to an exact rational" % (t,))
        k, rem = divmod(t.numerator * self._den, t.denominator * self._num)
        if rem:
            raise GridError("time %s is not on the grid of step %s"
                            % (t, self.step))
        return k

    def time(self, k):
        return k * self.step

    def check_stream(self, stream):
        """The grid index of each event time of the stream, in order, once
        alpha and omega are checked to lie on the grid too."""
        self.index(stream.alpha)
        self.index(stream.omega)
        return list(map(self.index, stream.event_times()))


# -- local static-graph helpers (deliberately not shared with the pipeline) --


def _static_dist_counts(graph, source):
    """BFS distances and shortest-path counts inside one snapshot."""
    dist = {source: 0}
    count = {source: 1}
    queue = [source]
    head = 0
    while head < len(queue):
        w = queue[head]
        head += 1
        for y in graph.neighbors(w):
            if y not in dist:
                dist[y] = dist[w] + 1
                count[y] = count[w]
                queue.append(y)
            elif dist[y] == dist[w] + 1:
                count[y] += count[w]
    return dist, count


def _reach_set(graph, sources):
    seen = set(sources)
    queue = list(sources)
    head = 0
    while head < len(queue):
        w = queue[head]
        head += 1
        for y in graph.neighbors(w):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


class _GridTable:
    """The maximal runs of grid indices of [k_lo, k_hi] that share one
    snapshot, in order, as (first index, end, graph): the run is [first,
    end), and two adjacent runs have different graphs (the stream gives one
    graph object per set of links).  k_lo and k_hi are those of the times lo
    and hi, on a grid checked against the stream.  Built once and shared by
    every scan of one entry-point call, with the BFS of each snapshot and
    node that its shortest-path steps have needed; nothing is kept per grid
    index."""

    __slots__ = ("k_lo", "k_hi", "runs", "_searched")

    def __init__(self, stream, grid, lo, hi, pairs=0):
        events = grid.check_stream(stream)
        k_lo, k_hi = grid.index(lo), grid.index(hi)
        points = k_hi - k_lo + 1
        if points > MAX_GRID_POINTS:
            raise GridError("grid of %d points exceeds the oracle limit of %d"
                            % (points, MAX_GRID_POINTS))
        cells = points * (points + 1) // 2 * pairs
        if cells > MAX_GRID_CELLS:
            raise GridError("grid of %d points has %d cells over %d node "
                            "pairs, beyond the oracle limit of %d"
                            % (points, cells, pairs, MAX_GRID_CELLS))
        self.k_lo, self.k_hi = k_lo, k_hi
        # the snapshot changes only at an event time and just after it; the
        # two ends are resolved too, which checks them against the window
        resolve = {k_lo, k_hi}
        resolve.update(events)
        resolve.update(e + 1 for e in events)
        # a resolved index starts a run unless the last run has its graph
        firsts = sorted(k for k in resolve if k_lo <= k <= k_hi)
        self.runs = runs = []
        for k, end in zip(firsts, firsts[1:] + [k_hi + 1]):
            g = stream.graph_at(grid.time(k))
            if runs and runs[-1][2] is g:
                k = runs.pop()[0]
            runs.append((k, end, g))
        self._searched = {}

    def run(self, k):
        """The position in `runs` of the run that holds grid index k."""
        return bisect_right(self.runs, k, key=itemgetter(0)) - 1

    def _search(self, g, x):
        got = self._searched.get((g, x))
        if got is None:
            got = self._searched[(g, x)] = _static_dist_counts(g, x)
        return got

    def cross(self, run, avail):
        """`avail` (node -> (length, count) of the shortest paths so far)
        extended by the paths that go on over one or more links at one grid
        index of the run, each leg a shortest path of its snapshot.  A new
        map, equal to `avail` when the snapshot has no links."""
        out = dict(avail)
        for x, (lx, cx) in avail.items():
            dist, count = self._search(run[2], x)
            for y, dy in dist.items():
                if dy:
                    _keep_shortest(out, y, lx + dy, cx * count[y])
        return out

    def cross_run(self, run, avail):
        """`avail` crossed at each of the r grid indices of the run, which
        share one snapshot: `cross` applied r times, in closed form.

        The first crossing settles the lengths L.  After it, every node that
        a node x of the map reaches in the snapshot is in the map, with L[y]
        <= L[x] + d(x, y) (a path to x and on to y is one to y), so no later
        crossing finds a shorter path; it only adds counts, C -> C(I + N),
        where N[x][y] = sigma(x, y), the number of shortest x-y paths in the
        snapshot, if x != y and L[x] + d(x, y) = L[y], and 0 otherwise.  A
        non-zero N[x][y] has L[y] > L[x], so N^i = 0 once i > max L - min
        L: N is nilpotent.  So r crossings give C_1 (I + N)^(r - 1) = C_1
        sum_i binom(r - 1, i) N^i, with C_1 the counts after the first
        crossing, a sum of at most max L - min L + 1 non-zero terms.  The
        searches are those of r single crossings: one from each node before
        the first crossing and, when r > 1, one from each node after it."""
        first, end, g = run
        r = end - first
        out = self.cross(run, avail)
        if r == 1:
            return out
        tight = {}  # x -> [(y, N[x][y])] over the non-zero entries
        for x, (lx, _) in out.items():
            dist, count = self._search(g, x)
            tight[x] = [(y, count[y]) for y, dy in dist.items()
                        if dy and lx + dy == out[y][0]]
        total = {x: c for x, (_, c) in out.items()}
        term, binom = total, 1  # C_1 N^i, and binom(r - 1, i), at i = 0
        for i in range(1, r):
            nxt = {}
            for x, c in term.items():
                for y, sigma in tight[x]:
                    nxt[y] = nxt.get(y, 0) + c * sigma
            if not nxt:
                break
            term, binom = nxt, binom * (r - i) // i
            for y, c in term.items():
                total[y] += binom * c
        return {x: (lx, total[x]) for x, (lx, _) in out.items()}


def _closure(v, runs):
    """The nodes joined to v over the runs, crossed in that order, with one
    reach set per run (a reach set is closed under its snapshot, so a
    second search in the same run adds nothing): for runs in increasing
    order, those that v reaches; in decreasing order (the snapshots are
    undirected), those that reach v."""
    seen = {v}
    for _, _, g in runs:
        seen = _reach_set(g, seen)
    return seen


def _through(table, kt, v):
    """(back, fwd): the nodes that reach (kt, v) from k_lo on, and those
    that (kt, v) reaches by k_hi; empty when kt is outside the table.  Each
    closure crosses the run of kt whole: only its part on one side of kt
    lies on that side, but that part has the same snapshot."""
    if not table.k_lo <= kt <= table.k_hi:
        return set(), set()
    r = table.run(kt)
    return (_closure(v, reversed(table.runs[:r + 1])),
            _closure(v, table.runs[r:]))


def _reach_scan(table, u, ks):
    """arrival[y] = earliest grid index a with a path u -> y whose first
    crossing is exactly at ks and last crossing at a (arrival[u] = ks); empty
    when u has no link at ks.  After the reach set of u at ks, the set grows
    only over the runs after the one of ks, each at its first index."""
    r = table.run(ks)
    g = table.runs[r][2]
    if not g.neighbors(u):
        return {}
    arrival = dict.fromkeys(_reach_set(g, [u]), ks)
    n = len(g.nodes)
    for first, _, g in table.runs[r + 1:]:
        if len(arrival) == n:
            break
        for y in _reach_set(g, arrival):
            arrival.setdefault(y, first)
    return arrival


# -- shortest paths -----------------------------------------------------------


def grid_count_shortest(stream, src, dst, grid):
    """(minimal length, number of minimal-length paths) over paths whose
    crossing times all lie on the grid inside [src.time, dst.time];
    (None, 0) when unreachable.

    count * step^dim approaches the exact size at first order in the step;
    Richardson extrapolation across two steps (2*E(step/2) - E(step))
    cancels the leading boundary bias.
    """
    stream.check_temporal_node(src)
    stream.check_temporal_node(dst)
    table = _GridTable(stream, grid, src.time, dst.time)
    if table.k_lo > table.k_hi:
        return (None, 0)
    avail = {src.node: (0, 1)}
    for run in table.runs:
        avail = table.cross_run(run, avail)
    return avail.get(dst.node, (None, 0))


def _keep_shortest(best, y, length, count):
    """Record `count` paths of `length` to y in best[y] = (length, count):
    the shorter length wins, and counts add on a tie."""
    cur = best.get(y)
    if cur is None or length < cur[0]:
        best[y] = (length, count)
    elif length == cur[0]:
        best[y] = (length, cur[1] + count)


# -- fastest paths ------------------------------------------------------------


def grid_fastest(stream, src, dst_node, grid, arrive_by=None):
    """Minimal duration over grid-timed paths from src to dst_node arriving
    by `arrive_by` (default omega), taken once per run; None if unreachable."""
    stream.check_temporal_node(src)
    if dst_node not in stream.nodes:
        raise GridError("unknown node %r" % dst_node)
    limit = stream.omega if arrive_by is None else arrive_by
    table = _GridTable(stream, grid, src.time, limit)
    if table.runs and src.node == dst_node:  # no run: arrive_by < src.time
        return Fraction(0)
    best = never = table.k_hi - table.k_lo + 1  # longer than any, in steps
    for _, end, scan in _reach_scans(table, src.node):
        if dst_node in scan:  # from the run's last index, its fastest start
            best = min(best, scan[dst_node] - (end - 1))
            if not best:  # none is shorter
                break
    return None if best == never else best * grid.step


# -- contribution -------------------------------------------------------------


def _shortest_sweep(table, start, k_from, k_to):
    """The paths from `start` over the grid indices k_from, ..., k_to, in
    that order, whose first crossing is at k_from (a path crosses one or
    more links at each index it uses): maps[k] maps each node they reach by
    index k to the (length, count) of its shortest paths.  Snapshots are
    undirected, so the sweep from w with k_from > k_to counts the paths
    that end at w, each read from its far end.

    A walk of minimal length follows a shortest path inside each snapshot
    it crosses, and its prefixes and suffixes are minimal too, so these are
    the counts of minimal-length walks, but for walks that leave `start`
    again after k_from.  From u, such a walk holds a later start that
    arrives no later, and _grid_contributions skips every start slower than
    one above it; back from w, it would reach w before the earliest
    arrival."""
    step = 1 if k_to >= k_from else -1
    avail = {start: (0, 1)}
    maps = {}
    for k in range(k_from, k_to + step, step):
        avail = maps[k] = table.cross(table.runs[table.run(k)], avail)
        if k == k_from:
            del avail[start]  # the first crossing is at k_from, not later
    return maps


def _pair_counts(table, u, w, ks, ka, tv_idx):
    """(minimal length, count of minimal-length paths, counts through each
    temporal node of tv_idx) over the paths from u to w whose first
    crossing is at ks and last crossing at ka, the earliest arrival from
    ks.  Only asked for a start that no later one beats (see
    _shortest_sweep), so such paths exist."""
    interior = any(v not in (u, w) and ks <= kt <= ka for kt, v in tv_idx)
    fwd = _shortest_sweep(table, u, ks, ka)
    length, count = fwd[ka][w]  # w is first reached at ka: all paths end there
    bwd = _shortest_sweep(table, w, ka, ks) if interior else {}
    through = []
    for kt, v in tv_idx:
        if v in (u, w):
            through.append(count if kt == (ks if v == u else ka) else 0)
            continue
        f = fwd.get(kt, {}).get(v)
        b = bwd.get(kt, {}).get(v)
        through.append(f[1] * b[1] if f and b and f[0] + b[0] == length
                       else 0)
    return length, count, tuple(through)


def _fold(agg, ks, ka, pair):
    """The aggregate (duration, length, count, through) of a set of usable
    starts with the start ks, of earliest arrival ka, added: the fastest
    starts, then the shortest of those, their counts and through counts
    summed.  pair(ks) is asked for only when ks is not slower; `agg` itself
    comes back when ks is slower or longer.  The result is a lexicographic
    minimum with counts summed on ties, so it does not depend on the order
    in which the starts are added."""
    dur, length, count, through = agg
    g = ka - ks
    if dur is not None and g > dur:
        return agg
    tab_length, tab_count, tab_through = pair(ks)
    if dur is None or g < dur or tab_length < length:
        return g, tab_length, tab_count, tab_through
    if tab_length > length:
        return agg
    return g, length, count + tab_count, tuple(map(add, through, tab_through))


def _grid_contributions(table, u, w, arrivals, tv_idx):
    """Riemann sums, in units of one grid cell, of the contribution of
    (u, w) to the betweenness of every temporal node in tv_idx (as (grid
    index, node)).  arrivals[ks] is the earliest arrival index at w from the
    first crossing ks (see _reach_scan), for each ks from which w is
    reached.

    A path counted through (kt, v) is at v at index kt, so ks <= kt <=
    arrivals[ks] for its first crossing ks.  So a column kj < min kt has
    through counts 0 and is not walked (its usable starts are still
    recorded for the later columns).  And a start after the last kt has
    through counts 0: it only helps choose the fastest, then shortest,
    starts of a cell and their count.  It lies above every row at or
    before the last kt, so each of those rows aggregates every late start
    usable so far.  These are folded into one aggregate as they become
    usable (_fold does not depend on order), and each column walks only
    the starts at or before the last kt, down from that aggregate.  The
    rows above the last kt hold only late starts: their cells add 0 and
    need no walk."""
    k_lo = table.k_lo
    first = min(kt for kt, _ in tv_idx)
    last = max(kt for kt, _ in tv_idx)
    pairs = {}

    def pair(ks):
        got = pairs.get(ks)
        if got is None:
            got = pairs[ks] = _pair_counts(table, u, w, ks, arrivals[ks],
                                           tv_idx)
        return got

    sums = [{} for _ in tv_idx]  # per query: count -> sum of through * cells

    def add_cells(agg, cells):
        _, _, count, through = agg
        for n, thr in enumerate(through):
            if thr:
                sums[n][count] = sums[n].get(count, 0) + thr * cells

    # Cell (ki, kj) aggregates the usable starts ks in [ki, kj], those with
    # arrivals[ks] <= kj: the fastest ones, then the shortest among those.
    # Walking ki down from kj, the aggregate changes only at usable starts,
    # so each aggregate is added once for the run of cells it covers.  The
    # usable starts, and so the whole column kj, change only where kj is an
    # arrival index: each distinct column is walked once, and its sums are
    # counted for every kj up to the next arrival index.
    by_arrival = {}
    for ks, ka in arrivals.items():
        by_arrival.setdefault(ka, []).append(ks)
    columns = sorted(by_arrival) + [table.k_hi + 1]
    usable = []  # the usable starts at or before the last kt
    late = (None, None, 0, (0,) * len(tv_idx))  # those after it, folded
    for kj, next_kj in zip(columns, columns[1:]):
        for ks in by_arrival[kj]:
            if ks <= last:
                insort(usable, ks)
            else:
                late = _fold(late, ks, kj, pair)
        if kj < first:
            continue
        width = next_kj - kj
        agg, top = late, last + 1  # its cells add 0 whatever its top
        for ki in reversed(usable):
            new = _fold(agg, ki, arrivals[ki], pair)
            if new is not agg:
                add_cells(agg, (top - ki) * width)
                agg, top = new, ki
        add_cells(agg, (top - k_lo + 1) * width)
    return [sum((Fraction(v, c) for c, v in acc.items()), Fraction(0))
            for acc in sums]


def _reach_scans(table, u):
    """(first, end, scan) for each run [first, end) of the table, from k_hi
    down, with scan = _reach_scan(table, u, end - 1): one scan per run.  The
    scan from any other start ks of the run starts from the same reach set
    of u and meets the same later runs, so it differs only in the arrival
    of that first reach set, ks instead of end - 1; every later arrival is
    the first index of a later run.  So from ks, y arrives at ks if scan[y]
    < end, and at scan[y] otherwise."""
    for first, end, _ in reversed(table.runs):
        yield first, end, _reach_scan(table, u, end - 1)


def _grid_sums(stream, tvs, grid, lo, hi, dests, pairs):
    """Riemann-sum estimates, one per temporal node tv of tvs, of the sum of
    C_tv(u, w) over each node u and w of dests[u], on the grid over [lo,
    hi] whose cell bound counts `pairs` node pairs.  One reach scan per run
    and source serves all its pairs and queries.

    A path counted through (kt, v) is at v at index kt: its source reaches
    (kt, v) on [k_lo, kt], the back closure of (kt, v), and (kt, v) reaches
    its destination on [kt, k_hi], the fwd closure; this holds for a path
    that starts at (kt, v) or ends there too.  So only the sources in some
    back closure are scanned, and only their pairs (u, w) with w in the fwd
    closure of a query whose back closure holds u.  Such a path is a fastest
    one from its first crossing ks, so ks <= kt <= its arrival at w; some
    start of a run [first, end) does so just when first <= kt <= scan[w]
    (see _reach_scans), for a zero-duration run too, with scan[w] = end - 1.
    So a pair none of whose runs spans one of those queried kt is skipped
    too.  Every pair skipped, and a pair (u, u), adds 0 to every estimate."""
    for tv in tvs:
        stream.check_temporal_node(tv)
    table = _GridTable(stream, grid, lo, hi, pairs)
    tv_idx = [(grid.index(tv.time), tv.node) for tv in tvs]
    through = [(kt, *_through(table, kt, v)) for kt, v in tv_idx]
    totals = [Fraction(0)] * len(tvs)
    for u, ws in dests.items():
        queries = [(kt, fwd) for kt, back, fwd in through if u in back]
        ends = {w: [kt for kt, fwd in queries if w in fwd]
                for w in ws if w != u}
        if not any(ends.values()):
            continue
        scans = list(_reach_scans(table, u))
        for w, kts in ends.items():
            if any(w in scan and first <= kt <= scan[w]
                   for first, _, scan in scans for kt in kts):
                arrivals = {ks: ks if scan[w] < end else scan[w]
                            for first, end, scan in scans if w in scan
                            for ks in range(end - 1, first - 1, -1)}
                part = _grid_contributions(table, u, w, arrivals, tv_idx)
                totals = [a + b for a, b in zip(totals, part)]
    cell = grid.step * grid.step
    return [t * cell for t in totals]


def grid_contribution(stream, u, w, tv, grid, window=None):
    """Riemann-sum estimate of C_tv(u, w), the one-pair case of the scan of
    grid_betweenness; converges as the step shrinks.  A window [lo, hi]
    needs lo <= hi; a zero-length one gives 0."""
    for node in (u, w):
        if node not in stream.nodes:
            raise GridError("unknown node %r" % node)
    lo, hi = (stream.alpha, stream.omega) if window is None else window
    if _exact(lo) > _exact(hi):
        raise GridError("window [%s, %s] starts after it ends" % (lo, hi))
    return _grid_sums(stream, [tv], grid, lo, hi, {u: [w]}, 1)[0]


def grid_betweenness(stream, tvs, grid):
    """Riemann-sum betweenness estimates for several temporal nodes at once,
    by one scan of every ordered node pair (see _grid_sums)."""
    n = len(stream.nodes)
    return _grid_sums(stream, tvs, grid, stream.alpha, stream.omega,
                      dict.fromkeys(stream.nodes, stream.nodes), n * (n - 1))
