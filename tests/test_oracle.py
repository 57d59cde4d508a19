import ast
import operator
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import linkstream.oracle
from linkstream import (
    GridError,
    GridSpec,
    LinkStream,
    Q,
    TemporalNode,
    Volume,
    betweenness,
    grid_betweenness,
    grid_contribution,
    grid_count_shortest,
    grid_fastest,
    parse_stream,
    vsp,
)
from linkstream.oracle import (
    MAX_GRID_POINTS,
    _GridTable,
    _grid_sums,
    _pair_counts,
    _reach_scan,
    _reach_scans,
    _through,
)

from conftest import random_stream, reversed_stream, seeded
from test_betweenness import with_late_and_isolated_nodes
from test_lazy import int_stream
from test_shared_state import quarter_stream


def tn(t, v):
    return TemporalNode(Q(t), v)


def richardson(coarse, fine):
    return 2 * fine - coarse


class TestGridSpec:
    def test_step_must_be_positive(self):
        with pytest.raises(GridError):
            GridSpec(0)
        with pytest.raises(GridError):
            GridSpec(Fraction(-1, 2))

    def test_index_and_time_roundtrip(self):
        grid = GridSpec(Fraction(1, 4))
        assert grid.index(Fraction(3, 2)) == 6
        assert grid.time(6) == Fraction(3, 2)

    def test_off_grid_time_rejected(self):
        grid = GridSpec(Fraction(1, 2))
        with pytest.raises(GridError):
            grid.index(Fraction(1, 3))

    def test_float_step_rejected(self):
        with pytest.raises(TypeError,
                           match="cannot convert 0.1 to an exact rational"):
            GridSpec(0.1)

    def test_float_time_rejected(self):
        with pytest.raises(TypeError,
                           match="cannot convert 0.5 to an exact rational"):
            GridSpec(Fraction(1, 8)).index(0.5)

    @pytest.mark.parametrize("step,t,expected", [
        (Fraction(1, 4), 0.5, (TypeError,
                               "cannot convert 0.5 to an exact rational")),
        (Fraction(1, 4), "1/2", (TypeError,
                                 "cannot convert '1/2' to an exact rational")),
        (Fraction(1, 4), True, 4),  # a bool is an int
        (Fraction(1, 4), False, 0),
        (Fraction(1, 4), Fraction(-3, 2), -6),
        (Fraction(1, 4), -7, -28),
        (Fraction(1, 4), Fraction(-1, 3),
         (GridError, "time -1/3 is not on the grid of step 1/4")),
        (Fraction(1, 2), Fraction(1, 3),
         (GridError, "time 1/3 is not on the grid of step 1/2")),
        (Fraction(3, 2), Fraction(9, 2), 3),
        (Fraction(3, 2), 3, 2),
        (Fraction(3, 2), 1, (GridError, "time 1 is not on the grid of step 3/2")),
        (2, 6, 3),
        (2, 7, (GridError, "time 7 is not on the grid of step 2")),
        (Fraction(1, 10**30 + 7), Fraction(5 * 10**30 + 38, 10**30 + 7),
         5 * 10**30 + 38),
        (Fraction(1, 10**30 + 7), Fraction(1, 10**30 - 1),
         (GridError, "time 1/%d is not on the grid of step 1/%d"
          % (10**30 - 1, 10**30 + 7))),
        (Fraction(1, 24 * (10**30 + 7)), Fraction(10**30 + 8, 10**30 + 7),
         24 * (10**30 + 8)),
    ])
    def test_index_table(self, step, t, expected):
        grid = GridSpec(step)
        if isinstance(expected, tuple):
            error, message = expected
            with pytest.raises(error, match="^%s$" % re.escape(message)):
                grid.index(t)
        else:
            got = grid.index(t)
            assert got == expected and type(got) is int

    def test_check_stream(self, demo):
        assert GridSpec(Fraction(1, 2)).check_stream(demo) == [
            2 * t for t in demo.event_times()]
        with pytest.raises(GridError):
            GridSpec(Fraction(2)).check_stream(demo)
        stream = LinkStream(Q(1, 2), Q(4), "ab", {("a", "b"): [(Q(1), Q(2))]})
        with pytest.raises(GridError, match="time 1/2 is not on the grid"):
            GridSpec(Fraction(1)).check_stream(stream)

    def test_grid_size_is_bounded(self):
        stream = LinkStream(Q(0), Q(1), "ab", {("a", "b"): [(Q(0), Q(1))]})
        limit = linkstream.oracle.MAX_GRID_POINTS
        over = GridSpec(Fraction(1, limit))  # limit + 1 points
        calls = [
            lambda g: grid_count_shortest(stream, tn(0, "a"), tn(1, "b"), g),
            lambda g: grid_fastest(stream, tn(0, "a"), "b", g),
            lambda g: grid_contribution(stream, "a", "b", tn(Q(1, 2), "a"), g),
            lambda g: grid_betweenness(stream, [tn(Q(1, 2), "a")], g),
        ]
        for call in calls:
            with pytest.raises(GridError, match="exceeds the oracle limit"):
                call(over)
        fits = GridSpec(Fraction(1, limit - 1))  # exactly limit points
        assert grid_count_shortest(stream, tn(0, "a"), tn(1, "b"), fits)[0] == 1


class TestCountShortest:
    def test_length_is_exact(self, demo):
        grid = GridSpec(Fraction(1))
        length, count = grid_count_shortest(demo, tn(0, "a"), tn(32, "e"), grid)
        assert length == 3
        assert count > 0

    def test_unreachable(self, demo):
        grid = GridSpec(Fraction(1))
        assert grid_count_shortest(demo, tn(0, "a"), tn(8, "e"), grid) == (None, 0)

    def test_same_temporal_node(self, demo):
        grid = GridSpec(Fraction(1))
        assert grid_count_shortest(demo, tn(7, "c"), tn(7, "c"), grid) == (0, 1)

    def test_size_estimate_converges(self, demo):
        # exact size 8 at dimension 3 for (0,a) -> (32,e)
        estimates = {}
        for denom in (8, 16):
            grid = GridSpec(Fraction(1, denom))
            length, count = grid_count_shortest(
                demo, tn(0, "a"), tn(32, "e"), grid
            )
            assert length == 3
            estimates[denom] = count * grid.step**3
        err8 = abs(estimates[8] - 8)
        err16 = abs(estimates[16] - 8)
        assert err16 < err8
        rich = richardson(estimates[8], estimates[16])
        assert abs(rich - 8) <= Fraction(8) * Fraction(5, 100)

    def test_dimension_two_family(self, demo):
        # exact size 2 at dimension 2 for (0,a) -> (18,e)
        estimates = {}
        for denom in (8, 16):
            grid = GridSpec(Fraction(1, denom))
            length, count = grid_count_shortest(
                demo, tn(0, "a"), tn(18, "e"), grid
            )
            assert length == 3
            estimates[denom] = count * grid.step**2
        rich = richardson(estimates[8], estimates[16])
        assert abs(rich - 2) <= Fraction(2) * Fraction(5, 100)

    def test_one_bfs_per_snapshot_and_node(self, demo, monkeypatch):
        # at step 1/8, (0,a) -> (32,e) meets 53 distinct (snapshot, node)
        # pairs at its 768 (grid index, available node) states: the demo's
        # 49 slots hold 11 distinct graphs
        calls = []
        bfs = linkstream.oracle._static_dist_counts

        def counted(graph, source):
            calls.append((id(graph), source))
            return bfs(graph, source)

        monkeypatch.setattr(linkstream.oracle, "_static_dist_counts", counted)
        got = grid_count_shortest(
            demo, tn(0, "a"), tn(32, "e"), GridSpec(Fraction(1, 8))
        )
        assert got == (3, 5742)
        assert len(calls) == len(set(calls)) == 53

    def test_snapshot_ties(self):
        # two shortest paths a-b-d and a-c-d inside the one snapshot at 1
        stream = parse_stream("0 2\na b 1 1\na c 1 1\nb d 1 1\nc d 1 1\n")
        src, dst = tn(0, "a"), tn(2, "d")
        res = vsp(stream, src, dst)
        assert (res.distance, res.volume) == (2, Volume(Q(2), 0))
        for denom in (1, 2, 4):
            got = grid_count_shortest(stream, src, dst,
                                      GridSpec(Fraction(1, denom)))
            assert got == (2, 2)
        got = grid_betweenness(stream, [tn(1, "b")], GridSpec(Fraction(1, 4)))
        assert got == [Fraction(175, 16)]


# -- closed-form run crossing ---------------------------------------------
#
# grid_count_shortest crosses each run of grid indices that share a snapshot
# in closed form (_GridTable.cross_run); the reference below applies `cross`
# at every grid index, one at a time.


def index_run(stream, grid, k):
    """The one-index run (k, k + 1, graph) of grid index k, its graph read
    from the stream at that index's time, not from a table's runs."""
    return k, k + 1, stream.graph_at(grid.time(k))


def linked(graph):
    return any(map(graph.neighbors, graph.nodes))


def reference_count_shortest(stream, src, dst, grid):
    """grid_count_shortest by one `cross` per grid index of the scan, each
    on the snapshot the stream gives at that index."""
    stream.check_temporal_node(src)
    stream.check_temporal_node(dst)
    table = _GridTable(stream, grid, src.time, dst.time)
    if table.k_lo > table.k_hi:
        return (None, 0)
    avail = {src.node: (0, 1)}
    for k in range(table.k_lo, table.k_hi + 1):
        avail = table.cross(index_run(stream, grid, k), avail)
    return avail.get(dst.node, (None, 0))


HUGE = 10**30 + 7


def huge_stream(rng):
    """An int_stream moved to the lattice of 1/HUGE and shifted by 1: its
    own L is HUGE, and its window still spans 10 ticks of 1/L."""
    base = int_stream(rng)

    def f(t):
        return Q(t, HUGE) + 1

    presence = {pair: [(f(b), f(e)) for b, e in ivs]
                for pair, ivs in base.presence.items()}
    return LinkStream(f(base.alpha), f(base.omega), base.nodes, presence)


RUN_STREAMS = {"int": int_stream, "quarter": quarter_stream,
               "huge": huge_stream}


def run_times(stream, grid):
    """Grid times around the runs of indices that share a snapshot: the
    window ends and the indices next to them, every event index, the one
    before it and the two after it (a run starts at an event index and at
    the one after it), and the middle of every stretch between event
    indices, each kept when it lies in the window."""
    k_lo, k_hi = grid.index(stream.alpha), grid.index(stream.omega)
    events = list(map(grid.index, stream.event_times()))
    ks = {k_lo, k_lo + 1, k_hi - 1, k_hi}
    for e in events:
        ks.update((e - 1, e, e + 1, e + 2))
    for a, b in zip([k_lo] + events, events + [k_hi]):
        ks.add((a + b) // 2)
    return [grid.time(k) for k in sorted(ks) if k_lo <= k <= k_hi]


def typed_count(result):
    return tuple((type(x).__name__, x) for x in result)


class TestCrossRun:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(RUN_STREAMS)),
           seed=st.integers(0, 10**6),
           refine=st.sampled_from([2, 8, 24]),
           parsed=st.booleans(),
           ends=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
           nodes=st.tuples(st.integers(0, 10), st.integers(0, 10)))
    def test_matches_one_cross_per_index(self, kind, seed, refine, parsed,
                                         ends, nodes):
        stream = RUN_STREAMS[kind](seeded(seed))
        if parsed:  # Fraction times, placed by the twin's ticks
            stream = parse_stream(stream.serialize())
        grid = GridSpec(Fraction(1, refine * stream.scale()))
        times = run_times(stream, grid)
        t1, t2 = (times[i % len(times)] for i in ends)
        u, w = (stream.nodes[i % len(stream.nodes)] for i in nodes)
        src, dst = TemporalNode(t1, u), TemporalNode(t2, w)
        assert typed_count(grid_count_shortest(stream, src, dst, grid)) == \
            typed_count(reference_count_shortest(stream, src, dst, grid))

    @pytest.mark.parametrize("kind", sorted(RUN_STREAMS))
    def test_windows_start_and_end_inside_runs(self, kind):
        # every window between run_times, each to a node drawn at random,
        # on a few streams; the windows start and end inside runs with
        # links and inside runs without, and cross runs of many indices
        rng = seeded(4040)
        inside = {True: [0, 0], False: [0, 0]}  # linked -> [starts, ends]
        longest = 0
        for _ in range(3):
            stream = RUN_STREAMS[kind](rng)
            grid = GridSpec(Fraction(1, 8 * stream.scale()))
            whole = _GridTable(stream, grid, stream.alpha, stream.omega)
            times = run_times(stream, grid)
            for i, t1 in enumerate(times):
                for t2 in times[i:]:
                    src = TemporalNode(t1, rng.choice(stream.nodes))
                    dst = TemporalNode(t2, rng.choice(stream.nodes))
                    assert grid_count_shortest(stream, src, dst, grid) == \
                        reference_count_shortest(stream, src, dst, grid)
                    for end, t in enumerate((t1, t2)):
                        k = grid.index(t)
                        for first, stop, graph in whole.runs:
                            if first < k < stop - 1:
                                inside[linked(graph)][end] += 1
            longest = max(longest, max(stop - first for first, stop, graph
                                       in whole.runs if linked(graph)))
        assert all(all(counts) for counts in inside.values()), inside
        assert longest >= 16

    def test_runs_tile_the_table(self, demo):
        grid = GridSpec(Fraction(1, 8))
        table = _GridTable(demo, grid, Q(3, 2), Q(20))
        firsts = [first for first, _, _ in table.runs]
        assert firsts[0] == table.k_lo == 12
        assert [end for _, end, _ in table.runs] == firsts[1:] + [161]
        for k in range(table.k_lo, table.k_hi + 1):
            first, end, graph = table.runs[table.run(k)]
            assert first <= k < end
            assert graph is index_run(demo, grid, k)[2]

    def test_nothing_kept_per_grid_index(self, demo, monkeypatch):
        # 48 001 points on the demo: one graph_at call per resolved index
        # (the window ends, each event index and the one after it), 29
        # maximal runs, and the table's memory does not grow with the points
        grid = GridSpec(Fraction(1, 1500))
        demo.graph_at(Q(0))  # the stream's own snapshots, built beforehand
        calls = []
        graph_at = LinkStream.graph_at

        def counted(stream, t):
            calls.append(t)
            return graph_at(stream, t)

        monkeypatch.setattr(LinkStream, "graph_at", counted)
        tracemalloc.start()
        try:
            table = _GridTable(demo, grid, demo.alpha, demo.omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.k_hi - table.k_lo + 1 == 48_001 <= MAX_GRID_POINTS
        assert len(calls) == 50
        assert len(table.runs) == 29
        assert peak < 256 * 1024, peak

    def test_closed_form_on_a_path(self):
        # one snapshot a - b - c over 17 indices: from (0, a) to (2, c),
        # a path of length 2 crosses a-b at i and b-c at j, i <= j, or both
        # at one index: 17 * 18 / 2 = 153 paths
        stream = LinkStream(0, 2, "abc", {("a", "b"): [(0, 2)],
                                          ("b", "c"): [(0, 2)]})
        grid = GridSpec(Fraction(1, 8))
        src, dst = TemporalNode(0, "a"), TemporalNode(2, "c")
        assert grid_count_shortest(stream, src, dst, grid) == (2, 153)
        assert reference_count_shortest(stream, src, dst, grid) == (2, 153)


# -- one graph per link set ------------------------------------------------
#
# The stream gives one graph object per set of links, and a grid table's
# runs are the maximal stretches of one graph.  The references below build
# each slot's links from the presence intervals, and split a table's runs at
# every resolved index, which must leave every oracle output the same.


def reference_links(stream, k):
    """The pairs present in slot k, read off the intervals at one time of
    the slot: event time i for slot 2i + 1, and a time inside the open gap
    for slot 2i."""
    events = stream.event_times()
    if k % 2:
        t = events[k // 2]
    elif not events:
        return frozenset()
    elif k == 0:
        t = events[0] - 1
    elif k == 2 * len(events):
        t = events[-1] + 1
    else:
        t = (Fraction(events[k // 2 - 1]) + events[k // 2]) / 2
    return frozenset(pair for pair, ivs in stream.presence.items() if t in ivs)


def reference_adjacency(nodes, links):
    return {v: sorted(y for pair in links if v in pair
                      for y in pair if y != v) for v in nodes}


class UnmergedTable(_GridTable):
    """A _GridTable whose runs are cut at every resolved index inside them
    (each event index and the one after it), so that adjacent runs may
    share a graph."""

    def __init__(self, stream, grid, lo, hi, pairs=0):
        super().__init__(stream, grid, lo, hi, pairs)
        events = grid.check_stream(stream)
        cuts = {*events, *(e + 1 for e in events)}
        runs = []
        for first, end, graph in self.runs:
            starts = [first] + sorted(k for k in cuts if first < k < end)
            runs += [(a, b, graph) for a, b in zip(starts, starts[1:] + [end])]
        self.runs = runs


class TestInternedGraphs:
    def test_demo_slots_share_eleven_graphs(self, demo):
        graphs = [demo.snapshot(k)
                  for k in range(2 * len(demo.event_times()) + 1)]
        assert len(graphs) == 49
        assert len(set(map(id, graphs))) == 11

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(RUN_STREAMS)),
           seed=st.integers(0, 10**6),
           refine=st.sampled_from([2, 8, 24]),
           parsed=st.booleans(),
           picks=st.tuples(*[st.integers(0, 10**6)] * 6))
    def test_one_graph_per_link_set(self, kind, seed, refine, parsed, picks):
        stream = RUN_STREAMS[kind](seeded(seed))
        if parsed:  # Fraction times, placed by the twin's ticks
            stream = parse_stream(stream.serialize())
        slots = range(2 * len(stream.event_times()) + 1)
        links = [reference_links(stream, k) for k in slots]
        graphs = [stream.snapshot(k) for k in slots]
        for j in slots:
            assert {v: sorted(nbrs) for v, nbrs in
                    graphs[j].adjacency.items()} == \
                reference_adjacency(stream.nodes, links[j])
            for k in slots:
                assert (graphs[j] is graphs[k]) == (links[j] == links[k])

        grid = GridSpec(Fraction(1, refine * stream.scale()))
        times = run_times(stream, grid)
        lo, hi = sorted(times[i % len(times)] for i in picks[:2])
        table = _GridTable(stream, grid, lo, hi)
        runs = table.runs
        assert [first for first, _, _ in runs] == \
            [table.k_lo] + [end for _, end, _ in runs[:-1]]
        assert runs[-1][1] == table.k_hi + 1
        assert all(first < end for first, end, _ in runs)
        assert all(a[2] is not b[2] for a, b in zip(runs, runs[1:]))
        for t in times:
            k = grid.index(t)
            if lo <= t <= hi:
                assert runs[table.run(k)][2] is stream.graph_at(t)

        u, w = (stream.nodes[i % len(stream.nodes)] for i in picks[2:4])
        src, dst = TemporalNode(lo, u), TemporalNode(hi, w)
        tvs = [TemporalNode(times[i % len(times)], stream.nodes[i % 7 % len(
            stream.nodes)]) for i in picks[4:]]

        def outputs():
            return (typed_count(grid_count_shortest(stream, src, dst, grid)),
                    grid_fastest(stream, src, w, grid, arrive_by=hi),
                    grid_betweenness(stream, tvs, grid))

        merged = outputs()
        with mock.patch.object(linkstream.oracle, "_GridTable",
                               UnmergedTable):
            assert outputs() == merged


# -- run walks -------------------------------------------------------------
#
# The closures and reach scans walk the table's runs, one search per run;
# the references below read the stream's snapshot at every grid index and
# search at each.


def reference_reach(graph, sources):
    """The nodes that the sources reach inside one snapshot."""
    seen, todo = set(sources), list(sources)
    while todo:
        new = set(graph.neighbors(todo.pop())) - seen
        seen |= new
        todo.extend(new)
    return seen


def reference_closure(stream, grid, v, ks):
    """The nodes joined to v over the grid indices ks, crossed in order,
    with one search at every index."""
    seen = {v}
    for k in ks:
        seen = reference_reach(stream.graph_at(grid.time(k)), seen)
    return seen


def reference_reach_scan(stream, grid, k_hi, u, ks):
    """arrival[y]: the first index from ks to k_hi at which y is joined to
    u by a path whose first crossing is at ks; empty when u has no link at
    ks."""
    if not stream.graph_at(grid.time(ks)).neighbors(u):
        return {}
    arrival, seen = {}, {u}
    for k in range(ks, k_hi + 1):
        seen = reference_reach(stream.graph_at(grid.time(k)), seen)
        for y in seen:
            arrival.setdefault(y, k)
    return arrival


def expand_scans(table, u):
    """{ks: arrival map from the first crossing ks} at every index of the
    table, read from the one scan per run of _reach_scans by its rule: from
    a start ks of the run [first, end), y arrives at ks if scan[y] < end,
    and at scan[y] otherwise."""
    runs = list(_reach_scans(table, u))
    assert [(first, end) for first, end, _ in runs] == [
        run[:2] for run in reversed(table.runs)]
    return {ks: {y: ks if ka < end else ka for y, ka in scan.items()}
            for first, end, scan in runs for ks in range(first, end)}


class TestRunWalks:
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(kind=st.sampled_from(sorted(RUN_STREAMS)),
           seed=st.integers(0, 10**6),
           refine=st.sampled_from([2, 8, 24]),
           parsed=st.booleans(),
           picks=st.tuples(*[st.integers(0, 10**6)] * 4))
    # 16 run times: the first pick lies after the second unless sorted
    @example(kind="huge", seed=206, refine=2, parsed=False, picks=(8, 8, 0, 0))
    def test_match_a_search_at_every_index(self, kind, seed, refine, parsed,
                                           picks):
        """The closures, the reach scans expanded to every index, the
        fastest durations and the pairs that _grid_sums scans, against
        searches at every grid index.  The references scan from each index
        of `inside` and from k_hi - 1, which hold the first and the last
        index of every run: the snapshot is constant over a run, so a start
        inside one is no faster than the run's last index."""
        stream = RUN_STREAMS[kind](seeded(seed))
        if parsed:  # Fraction times, placed by the twin's ticks
            stream = parse_stream(stream.serialize())
        grid = GridSpec(Fraction(1, refine * stream.scale()))
        times = run_times(stream, grid)
        half = len(times) // 2 + 1  # one end in each half, in order
        lo, hi = sorted((times[picks[0] % half], times[-1 - picks[1] % half]))
        inside = [t for t in times if lo <= t <= hi]
        kts = sorted({grid.index(inside[i % len(inside)]) for i in picks[2:]})
        table = _GridTable(stream, grid, lo, hi)
        k_lo, k_hi = table.k_lo, table.k_hi
        closures, scans = {}, {}
        for v in stream.nodes:
            for kt in kts:
                closures[kt, v] = _through(table, kt, v)
                assert closures[kt, v] == (
                    reference_closure(stream, grid, v,
                                      range(kt, k_lo - 1, -1)),
                    reference_closure(stream, grid, v, range(kt, k_hi + 1)))
            for outside in (k_lo - 1, k_hi + 1):
                assert _through(table, outside, v) == (set(), set())
            scans[v] = expand_scans(table, v)
            assert scans[v] == {ks: _reach_scan(table, v, ks)
                                for ks in range(k_lo, k_hi + 1)}
            ref = {}
            for ks in {grid.index(t) for t in inside} | {max(k_lo, k_hi - 1)}:
                ref[ks] = reference_reach_scan(stream, grid, k_hi, v, ks)
                assert scans[v][ks] == ref[ks]
            for w in stream.nodes:
                least = min((arrival[w] - ks for ks, arrival in ref.items()
                             if w in arrival), default=None)
                got = grid_fastest(stream, TemporalNode(lo, v), w, grid,
                                   arrive_by=hi)
                if w == v:
                    assert got == 0
                else:
                    assert got == (None if least is None
                                   else least * grid.step), (v, w)
        # _grid_sums walks a pair (u, w) just when a start ks reaches w at
        # some ka >= kt of a query (kt, v) whose closures hold u and w, and
        # hands it the arrivals at w from every start
        walked = {}

        def recorded(table, u, w, arrivals, tv_idx):
            walked[u, w] = arrivals
            return [Fraction(0)] * len(tv_idx)

        tvs = [TemporalNode(grid.time(kt), v) for kt, v in closures]
        nodes = stream.nodes
        with mock.patch.object(linkstream.oracle, "_grid_contributions",
                               recorded):
            _grid_sums(stream, tvs, grid, lo, hi, dict.fromkeys(nodes, nodes),
                       len(nodes) * (len(nodes) - 1))
        for u in nodes:
            for w in nodes:
                arrivals = {ks: arrival[w] for ks, arrival in scans[u].items()
                            if w in arrival}
                ends = [kt for (kt, v), (back, fwd) in closures.items()
                        if u in back and w in fwd]
                spans = u != w and any(ks <= kt <= ka for kt in ends
                                       for ks, ka in arrivals.items())
                assert ((u, w) in walked) == spans, (u, w)
                if spans:
                    assert walked[u, w] == arrivals


class TestFastest:
    def test_demo_duration(self, demo):
        grid = GridSpec(Fraction(1, 2))
        assert grid_fastest(demo, tn(0, "a"), "e", grid) == 6

    def test_instantaneous(self, demo):
        grid = GridSpec(Fraction(1))
        assert grid_fastest(demo, tn(4, "b"), "c", grid) == 0

    def test_unreachable_window(self, demo):
        grid = GridSpec(Fraction(1))
        assert grid_fastest(demo, tn(3, "a"), "e", grid, arrive_by=Q(8)) is None

    def test_arrive_by_before_start(self, demo):
        # an empty range is no error for the path entry points
        grid = GridSpec(Fraction(1))
        assert grid_fastest(demo, tn(10, "a"), "e", grid, arrive_by=Q(5)) \
            is None
        assert grid_fastest(demo, tn(10, "a"), "a", grid, arrive_by=Q(5)) \
            is None
        assert grid_count_shortest(demo, tn(10, "a"), tn(5, "e"), grid) == \
            (None, 0)

    def test_unknown_node(self, demo):
        with pytest.raises(GridError):
            grid_fastest(demo, tn(0, "a"), "z", GridSpec(Fraction(1)))

    def test_float_arrive_by_rejected(self, demo):
        with pytest.raises(TypeError,
                           match="cannot convert 20.5 to an exact rational"):
            grid_fastest(demo, tn(0, "a"), "e", GridSpec(Fraction(1, 8)),
                         arrive_by=20.5)


class TestContribution:
    @pytest.mark.parametrize(
        "tv,exact",
        [((Q(10), "c"), Q(98)), ((Q(9, 2), "c"), Q(63, 2))],
    )
    def test_converges_to_exact(self, demo, tv, exact):
        t, v = tv
        est = {}
        for denom in (8, 16):
            grid = GridSpec(Fraction(1, denom))
            est[denom] = grid_contribution(
                demo, "a", "e", TemporalNode(t, v), grid
            )
        rich = richardson(est[8], est[16])
        assert abs(rich - exact) <= exact * Fraction(3, 100)

    def test_same_node_is_zero(self, demo):
        # as the exact contribution of (c, c): a loop back to c is no path
        for tv in [tn(10, "b"), tn(11, "c"), tn(9, "a")]:
            assert grid_contribution(demo, "c", "c", tv,
                                     GridSpec(Fraction(1, 2))) == 0

    @pytest.mark.parametrize("u,w", [("z", "e"), ("a", "zz")])
    def test_unknown_node(self, demo, u, w):
        with pytest.raises(GridError, match="unknown node"):
            grid_contribution(demo, u, w, tn(Q(9, 2), "c"),
                              GridSpec(Fraction(1, 8)))

    def test_windowed_scan_restricts_support(self, demo):
        # nothing starts before time 20 that involves (4.5,c)
        grid = GridSpec(Fraction(1, 4))
        late = grid_contribution(
            demo, "a", "e", tn(Q(9, 2), "c"), grid, window=(Q(20), Q(32))
        )
        assert late == 0

    def test_float_window_rejected(self, demo):
        with pytest.raises(TypeError,
                           match="cannot convert 0.0 to an exact rational"):
            grid_contribution(demo, "a", "e", tn(Q(9, 2), "c"),
                              GridSpec(Fraction(1, 8)), window=(0.0, 16.0))

    def test_reversed_window_rejected(self, demo, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scanned a reversed window")

        monkeypatch.setattr(linkstream.oracle, "_GridTable", no_scan)
        with pytest.raises(GridError, match=r"window \[16, 0\] starts after"):
            grid_contribution(demo, "a", "e", tn(Q(9, 2), "c"),
                              GridSpec(Fraction(1, 8)), window=(Q(16), Q(0)))

    def test_zero_length_window_is_zero(self, demo):
        for t in (Q(9, 2), Q(16)):
            assert grid_contribution(demo, "a", "e", tn(Q(9, 2), "c"),
                                     GridSpec(Fraction(1, 8)),
                                     window=(t, t)) == 0


class TestBetweenness:
    def test_matches_exact_on_small_stream(self):
        stream = parse_stream("0 6\na b 0 2\nb c 2 4\nc d 4 6\n")
        tvs = [tn(3, "b"), tn(3, "c"), tn(2, "a")]
        est = {}
        for denom in (8, 16):
            grid = GridSpec(Fraction(1, denom))
            est[denom] = grid_betweenness(stream, tvs, grid)
        for i, tv in enumerate(tvs):
            exact = betweenness(stream, tv)
            rich = richardson(est[8][i], est[16][i])
            tol = max(abs(exact) * Fraction(3, 100), Fraction(1, 20))
            assert abs(rich - exact) <= tol

    def test_checks_inputs(self, demo):
        with pytest.raises(GridError):
            grid_betweenness(demo, [tn(Q(1, 3), "a")], GridSpec(Fraction(1, 2)))


class TestTimeReversal:
    """Reading a stream backwards in time maps a path from (x, u) to (y, w)
    onto one from (-y, w) to (-x, u) with the same crossings, so each grid
    estimate on the reversed stream equals its mirror image on the stream.
    The oracle's backward walk counts rely on this symmetry; test_reversal
    checks the exact pipeline alike."""

    GRID = GridSpec(Fraction(1, 2))

    @staticmethod
    def case(seed):
        rng = seeded(seed)
        stream = random_stream(rng, horizon=10)

        def node():
            return tn(Q(rng.randint(0, 20), 2), rng.choice(stream.nodes))

        return rng, stream, reversed_stream(stream), node

    @staticmethod
    def mirror(tv):
        return TemporalNode(-tv.time, tv.node)

    @pytest.mark.parametrize("seed", range(60))
    def test_betweenness(self, seed):
        _, stream, rev, node = self.case(seed)
        tvs = [node() for _ in range(3)]
        assert grid_betweenness(stream, tvs, self.GRID) == grid_betweenness(
            rev, [self.mirror(tv) for tv in tvs], self.GRID)

    @pytest.mark.parametrize("seed", range(60))
    def test_contribution(self, seed):
        rng, stream, rev, node = self.case(seed)
        for _ in range(4):
            u, w = rng.sample(stream.nodes, 2)
            tv = node()
            assert grid_contribution(stream, u, w, tv, self.GRID) == \
                grid_contribution(rev, w, u, self.mirror(tv), self.GRID)

    @pytest.mark.parametrize("seed", range(60))
    def test_count_shortest(self, seed):
        _, stream, rev, node = self.case(seed)
        for _ in range(8):
            src, dst = sorted((node(), node()), key=lambda tv: tv.time)
            assert grid_count_shortest(stream, src, dst, self.GRID) == \
                grid_count_shortest(rev, self.mirror(dst), self.mirror(src),
                                    self.GRID)


# -- pruning --------------------------------------------------------------
#
# grid_betweenness scans only the pairs that can pass through a queried
# temporal node, and walks only the columns that can; the reference below is
# the scan over every ordered pair and every column.


def reference_cells(table, u, w, arrivals, tv_idx):
    """The Riemann sums of (u, w), in grid cells, with every column walked."""
    pairs = {}

    def pair(ks):
        if ks not in pairs:
            pairs[ks] = _pair_counts(table, u, w, ks, arrivals[ks], tv_idx)
        return pairs[ks]

    sums = [{} for _ in tv_idx]

    def add_cells(count, through, cells):
        for n, thr in enumerate(through):
            if thr:
                sums[n][count] = sums[n].get(count, 0) + thr * cells

    by_arrival = {}
    for ks, ka in arrivals.items():
        by_arrival.setdefault(ka, []).append(ks)
    columns = sorted(by_arrival) + [table.k_hi + 1]
    usable = []
    for kj, next_kj in zip(columns, columns[1:]):
        usable = sorted(usable + by_arrival[kj])
        width = next_kj - kj
        dur = length = through = top = None
        count = 0
        for ki in reversed(usable):
            g = arrivals[ki] - ki
            if dur is not None and g > dur:
                continue
            tab_length, tab_count, tab_through = pair(ki)
            if dur is None or g < dur:
                dur = g
            elif tab_length > length:
                continue
            elif tab_length == length:
                tab_count += count
                tab_through = tuple(map(operator.add, through, tab_through))
            if count:
                add_cells(count, through, (top - ki) * width)
            length, count, through, top = (tab_length, tab_count,
                                           tab_through, ki)
        if count:
            add_cells(count, through, (top - table.k_lo + 1) * width)
    return [sum((Fraction(v, c) for c, v in acc.items()), Fraction(0))
            for acc in sums]


def reference_pairs(stream, tvs, grid):
    """(u, w) -> the cell sums of the pair for each of tvs, over every
    ordered pair of distinct nodes."""
    table = _GridTable(stream, grid, stream.alpha, stream.omega)
    tv_idx = [(grid.index(tv.time), tv.node) for tv in tvs]
    out = {}
    for u in stream.nodes:
        scans = {ks: _reach_scan(table, u, ks)
                 for ks in range(table.k_lo, table.k_hi + 1)}
        for w in stream.nodes:
            if u != w:
                arrivals = {ks: scan[w] for ks, scan in scans.items()
                            if w in scan}
                out[u, w] = reference_cells(table, u, w, arrivals, tv_idx)
    return out


def pruning_case(make, seed):
    """A random stream with an unlinked node "y" and a node "z" linked on
    the last unit only; temporal nodes at both window ends, at two event
    times, at two gap midpoints, and at y; a grid that holds them all."""
    rng = seeded(seed)
    stream = with_late_and_isolated_nodes(make(rng))
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    mids = [a + Q(b - a, 2) for a, b in zip(bounds, bounds[1:])]
    times = [stream.alpha, stream.omega, *rng.sample(bounds, 2),
             *rng.sample(mids, 2)]
    linked = [v for v in stream.nodes if v != "y"]
    tvs = [TemporalNode(t, rng.choice(linked)) for t in times]
    tvs.append(TemporalNode(rng.choice(mids), "y"))
    step = Fraction(1, 4 if make is int_stream else 8)
    return stream, tvs, GridSpec(step)


def late_case(make, seed):
    """pruning_case's stream and grid, with queries at different times
    before omega: at alpha, at two probe times before the middle one, and
    at the middle one, which is the last; the usable starts after it have
    through counts 0 and are folded into one aggregate."""
    stream, _, grid = pruning_case(make, seed)
    rng = seeded(seed)
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    mids = [a + Q(b - a, 2) for a, b in zip(bounds, bounds[1:])]
    times = sorted({*bounds, *mids})
    last = times[len(times) // 2]
    early = [t for t in times if t < last]
    linked = [v for v in stream.nodes if v != "y"]
    tvs = [TemporalNode(t, rng.choice(linked))
           for t in [stream.alpha, *rng.sample(early, 2), last]]
    return stream, tvs, grid


def early_case(make, seed):
    """pruning_case's stream and grid, with every node queried at alpha and
    at the first event time: nearly every usable start is a late one."""
    stream, _, grid = pruning_case(make, seed)
    first = min(stream.event_times())
    return stream, [TemporalNode(t, v) for t in (stream.alpha, first)
                    for v in stream.nodes], grid


def long_link_case(make):
    """One link from 1/400 of the window to its end, on 801 grid points, as
    an int stream or on the quarter lattice; queries at its first instant
    and just after.  Every start arrives at once, so each column holds all
    the starts before it, nearly all of them late ones."""
    end, start, step = (400, 1, Fraction(1, 2)) if make is int_stream \
        else (Q(100), Q(1, 4), Fraction(1, 8))
    stream = LinkStream(end * 0, end, ["a", "b"], {("a", "b"): [(start, end)]})
    return stream, [TemporalNode(start, "a"),
                    TemporalNode(2 * start, "b")], GridSpec(step)


def assert_matches_unpruned_scan(stream, tvs, grid, monkeypatch):
    """grid_betweenness equals the sum of the unpruned scan over every pair,
    and every pair it skips, which it returns, has all-zero reference
    sums."""
    ref = reference_pairs(stream, tvs, grid)
    scanned = set()
    walk = linkstream.oracle._grid_contributions

    def recorded(table, u, w, arrivals, tv_idx):
        scanned.add((u, w))
        return walk(table, u, w, arrivals, tv_idx)

    monkeypatch.setattr(linkstream.oracle, "_grid_contributions", recorded)
    got = grid_betweenness(stream, tvs, grid)
    cell = grid.step * grid.step
    assert got == [sum(col, Fraction(0)) * cell for col in zip(*ref.values())]
    skipped = set(ref) - scanned
    for p in skipped:
        assert ref[p] == [0] * len(tvs), p
    return skipped


MAKES = pytest.mark.parametrize("make", [int_stream, quarter_stream],
                                ids=["int", "quarter"])


class TestPruning:
    @MAKES
    @pytest.mark.parametrize("seed", range(10))
    def test_betweenness_matches_unpruned_scan(self, make, seed,
                                               monkeypatch):
        stream, tvs, grid = pruning_case(make, 1500 + seed)
        skipped = assert_matches_unpruned_scan(stream, tvs, grid, monkeypatch)
        assert {(u, "y") for u in stream.nodes if u != "y"} <= skipped
        assert {("y", w) for w in stream.nodes if w != "y"} <= skipped

    @MAKES
    @pytest.mark.parametrize("seed", range(3))
    def test_contribution_matches_unpruned_scan(self, make, seed):
        stream, tvs, grid = pruning_case(make, 1500 + seed)
        ref = reference_pairs(stream, tvs, grid)
        cell = grid.step * grid.step
        for (u, w), sums in ref.items():
            for tv, value in zip(tvs, sums):
                assert grid_contribution(stream, u, w, tv, grid) == \
                    value * cell, (u, w, tv)

    @MAKES
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("case", [late_case, early_case],
                             ids=["late", "early"])
    def test_late_starts_match_unpruned_scan(self, case, make, seed,
                                             monkeypatch):
        stream, tvs, grid = case(make, 1700 + seed)
        assert_matches_unpruned_scan(stream, tvs, grid, monkeypatch)

    @MAKES
    def test_long_link_matches_unpruned_scan(self, make, monkeypatch):
        stream, tvs, grid = long_link_case(make)
        assert_matches_unpruned_scan(stream, tvs, grid, monkeypatch)

    @MAKES
    @pytest.mark.parametrize("seed", range(4))
    def test_shared_reach_scans(self, make, seed):
        # one search per run of indices that share a snapshot, expanded by
        # the rule of _reach_scans, gives the scans of a search from every
        # index
        stream, _, grid = pruning_case(make, 1500 + seed)
        table = _GridTable(stream, grid, stream.alpha, stream.omega)
        for u in stream.nodes:
            assert expand_scans(table, u) == {
                ks: _reach_scan(table, u, ks)
                for ks in range(table.k_lo, table.k_hi + 1)}


# -- zero-duration blocks ---------------------------------------------------
#
# _grid_contributions walks the starts of a run that reach w at once as one
# block, with one _pair_counts call per run and per query inside it;
# reference_cells folds every start of every column.


def zero_run_stream(rng):
    """A stream on [0, 12] whose pair (a, b) has long zero-duration runs
    next to each other, with different (length, count) or different graphs
    and the same one: a long a-b link (length 1), the relay a-c-b from the
    instant it ends (length 2), the relay a-d-b over a drawn stretch that
    may overlap both (count 2 beside a-c-b), and up to three short links."""
    b1 = rng.randint(0, 3)
    e1 = rng.randint(b1 + 2, 6)
    e2 = rng.randint(e1 + 1, 10)
    d1 = rng.randint(b1, e2)
    d2 = rng.randint(d1, 12)
    presence = {("a", "b"): [(b1, e1)], ("a", "c"): [(e1, e2)],
                ("b", "c"): [(e1, e2)], ("a", "d"): [(d1, d2)],
                ("b", "d"): [(d1, d2)]}
    nodes = ["a", "b", "c", "d", "e"]
    for _ in range(rng.randint(0, 3)):
        pair = tuple(sorted(rng.sample(nodes, 2)))
        t = rng.randint(0, 10)
        presence.setdefault(pair, []).append((t, t + rng.randint(0, 2)))
    return LinkStream(0, 12, nodes, presence)


class TestZeroDurationBlocks:
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 10**6),
           refine=st.sampled_from([1, 2, 4]),
           window=st.sampled_from([(0, 12), (0, 8), (2, 12), (3, 9)]),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
    def test_blocks_match_every_start_folded(self, seed, refine, window,
                                             picks):
        """Every ordered pair's sums, exactly and with their types, for one
        to four queries placed inside, at the edges of, below and above the
        runs, against reference_cells."""
        stream = zero_run_stream(seeded(seed))
        grid = GridSpec(Fraction(1, refine))
        table = _GridTable(stream, grid, *window)
        # inside, at the edges of, just below and just above every run
        edges = [grid.index(t) for t in run_times(stream, grid)]
        tv_idx = [(edges[i % len(edges)], stream.nodes[i % 5]) for i in picks]
        for u in stream.nodes:
            scans = expand_scans(table, u)
            for w in stream.nodes:
                arrivals = {ks: arrival[w] for ks, arrival in scans.items()
                            if w in arrival}
                if u == w or not arrivals:
                    continue
                assert typed_count(linkstream.oracle._grid_contributions(
                    table, u, w, arrivals, tv_idx)) == typed_count(
                    reference_cells(table, u, w, arrivals, tv_idx)), (u, w)

    def test_pair_counts_per_run_not_per_start(self, monkeypatch):
        """One link over the whole window, 801 grid points in one zero-
        duration run, queried mid-window: each pair walk asks _pair_counts
        at most once per run and once per query, not once per start."""
        stream = LinkStream(0, 100, ["a", "b"], {("a", "b"): [(0, 100)]})
        tv, grid = TemporalNode(50, "a"), GridSpec(Fraction(1, 8))
        calls, bounds, walks = [], [], {}
        pair_counts = linkstream.oracle._pair_counts
        walk = linkstream.oracle._grid_contributions

        def counted(*args):
            calls.append(args)
            return pair_counts(*args)

        def recorded(table, u, w, arrivals, tv_idx):
            bounds.append(len(table.runs) + len(tv_idx))
            walks[u, w] = walk(table, u, w, arrivals, tv_idx)
            return walks[u, w]

        monkeypatch.setattr(linkstream.oracle, "_pair_counts", counted)
        monkeypatch.setattr(linkstream.oracle, "_grid_contributions",
                            recorded)
        got = grid_betweenness(stream, [tv], grid)
        assert bounds == [2, 2]
        assert len(calls) <= sum(bounds)
        monkeypatch.undo()
        table = _GridTable(stream, grid, 0, 100)
        arrivals = {ks: ks for ks in range(801)}
        assert walks["a", "b"] == reference_cells(table, "a", "b", arrivals,
                                                  [(400, "a")])
        assert got == [sum(map(sum, walks.values()), Fraction(0))
                       * grid.step ** 2]


class TestEntryPointsAgree:
    """B(t, v) is the sum of C_(t,v)(u, w) over the ordered pairs of
    distinct nodes: the estimates of grid_betweenness are the sums of those
    of grid_contribution, exactly, and a window of [alpha, omega] is the
    default one."""

    @pytest.mark.parametrize("make", [int_stream, quarter_stream],
                             ids=["int", "quarter"])
    @pytest.mark.parametrize("seed", range(4))
    def test_betweenness_sums_contributions(self, make, seed):
        stream, tvs, grid = pruning_case(make, 1600 + seed)
        window = (stream.alpha, stream.omega)
        pairs = [(u, w) for u in stream.nodes for w in stream.nodes if u != w]
        for tv, value in zip(tvs, grid_betweenness(stream, tvs, grid)):
            parts = [grid_contribution(stream, u, w, tv, grid)
                     for u, w in pairs]
            assert parts == [grid_contribution(stream, u, w, tv, grid,
                                               window=window)
                             for u, w in pairs]
            assert sum(parts, Fraction(0)) == value, tv


# -- independence -------------------------------------------------------
#
# The oracle checks the exact pipeline only while it shares no code with it:
# of a stream it may read the definition and the instantaneous graphs, never
# the slot tables, BFS or component caches the pipeline builds.

ORACLE_STREAM_API = {
    "graph_at", "nodes", "alpha", "omega", "event_times",
    "check_temporal_node",
}


def oracle_tree():
    source = Path(linkstream.oracle.__file__).read_text(encoding="utf-8")
    return ast.parse(source)


class TestIndependence:
    def test_imports_only_the_standard_library(self):
        for node in ast.walk(oracle_tree()):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in the oracle"
                modules = [node.module]
            else:
                continue
            for name in modules:
                assert name.split(".")[0] in sys.stdlib_module_names, name

    def test_reads_only_the_stream_definition(self, demo):
        stream_attrs = {a for a in set(dir(LinkStream)) | set(vars(demo))
                        if not a.startswith("__")}
        assert {"slot", "snapshot", "bfs", "components"} <= stream_attrs
        used = set()
        for node in ast.walk(oracle_tree()):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr")
                  and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                used.add(node.args[1].value)
        assert used & stream_attrs <= ORACLE_STREAM_API, sorted(
            used & stream_attrs - ORACLE_STREAM_API
        )


# -- pinned outputs -------------------------------------------------------
#
# The grid oracle's estimates, recorded as exact rationals from an earlier
# implementation of the oracle.  Any rework of the oracle's scans must
# reproduce them exactly: the tolerance-based tests above would let a
# changed estimate through.

DEMO_TARGETS = [tn(Q(9, 2), "c"), tn(Q(10), "c"), tn(Q(16), "d")]


def pinned_cases():
    """Ten seeded random streams on [0, 10], each with three query temporal
    nodes and two pairs of temporal nodes on distinct nodes, on the half lattice."""
    rng = seeded(4242)
    cases = []
    for _ in range(10):
        stream = random_stream(rng, horizon=10)
        tvs = [tn(Q(rng.randint(0, 20), 2), rng.choice(stream.nodes))
               for _ in range(3)]
        pairs = []
        for _ in range(2):
            t1, t2 = sorted(Q(rng.randint(0, 20), 2) for _ in range(2))
            u, w = rng.sample(stream.nodes, 2)
            pairs.append((tn(t1, u), tn(t2, w)))
        cases.append((stream, tvs, pairs))
    return cases


def oracle_outputs(stream, tvs, pairs):
    """Every entry point on one case, at steps 1/8 and 1/16, as strings."""
    out = []
    for denom in (8, 16):
        grid = GridSpec(Fraction(1, denom))
        out += [str(x) for x in grid_betweenness(stream, tvs, grid)]
        for src, dst in pairs:
            out.append("%s %s" % grid_count_shortest(stream, src, dst, grid))
            out.append(str(grid_fastest(stream, src, dst.node, grid)))
            out.append(str(grid_fastest(stream, src, dst.node, grid,
                                        arrive_by=dst.time)))
    return out
PINNED_RANDOM = [
    (
        "0", "0", "160164473969/65898201600", "None 0", "0", "None", "None 0",
        "None", "None", "0", "0",
        "159690543637684242624113/132225898847829192806400", "None 0", "0",
        "None", "None 0", "None", "None",
    ),
    (
        "151808383719394513/85486903313011200", "0",
        "41157663646749877/15543073329638400", "1 5", "0", "0", "None 0", "0",
        "None",
        "1226192854539244658727398399553823/1397822890442299600231553823272960",
        "0",
        "1828448243187012321762976467894629839/1383844661537876604229238285040230400",
        "1 9", "0", "0", "None 0", "0", "None",
    ),
    (
        "9/32", "0", "0", "None 0", "None", "None", "None 0", "None", "None",
        "17/128", "0", "0", "None 0", "None", "None", "None 0", "None",
        "None",
    ),
    (
        "0", "2953/64", "777945299688923/288807105787200", "None 0", "0",
        "None", "None 0", "None", "None", "0", "11537/256",
        "83586275056169783316298181/62224572847516961447966400", "None 0",
        "0", "None", "None 0", "None", "None",
    ),
    (
        "2128751325722942251313/1209383221169169446400",
        "2128751325722942251313/1209383221169169446400",
        "732054974111/50392742400", "1 25", "0", "0", "1 25", "0", "0",
        "9621743680166964235222238279287079941157/11017540777040984045753490794716018339840",
        "9621743680166964235222238279287079941157/11017540777040984045753490794716018339840",
        "139616327426955471028361/12020536258893562982400", "1 49", "0", "0",
        "1 49", "0", "0",
    ),
    (
        "160164473969/65898201600", "0", "0", "1 21", "0", "0", "None 0",
        "None", "None", "159690543637684242624113/132225898847829192806400",
        "0", "0", "1 41", "0", "0", "None 0", "None", "None",
    ),
    (
        "0", "0", "0", "None 0", "None", "None", "1 42", "0", "0", "0", "0",
        "0", "None 0", "None", "None", "1 82", "0", "0",
    ),
    (
        "0", "0", "3298847273695851337741727/181240671696593462553600", "1 9",
        "0", "0", "None 0", "None", "None", "0", "0",
        "383767873177937910715401366938563755573883240976646757/40784556899252414272576470965601295095322732141977600",
        "1 17", "0", "0", "None 0", "None", "None",
    ),
    (
        "0", "987071/26880", "57951919063/392071680", "2 17", "0", "0", "1 1",
        "0", "0", "0", "50894277319/1568286720",
        "96718348725498317/684579806310400", "2 33", "0", "0", "1 1", "0",
        "0",
    ),
    (
        "0", "16688421165363239/7302006324653040", "67073/13440", "None 0",
        "None", "None", "1 2", "0", "0", "0",
        "353574662479669298760237713022229319/311365048846022235951578614134051840",
        "44480829/17425408", "None 0", "None", "None", "1 2", "0", "0",
    ),
]

PINNED_DEMO = {
    8: [
        "45744028901861527727615942500573/844926733172150313848119756800",
        "1436129/6080", "3662202684594320491/4620913692595200",
    ],
    16: [
        "47263521574738407588546319027100488796686582712753908420793/995181253928198210504186962933572828201296965480919285760",
        "107030299/456960",
        "7872118389195983794412664307383461/10139120798065803766177437081600",
    ],
}

PINNED_WINDOWED = "7397/640"


class TestPinnedOutputs:
    @pytest.mark.parametrize("n", range(len(PINNED_RANDOM)))
    def test_random_streams(self, n):
        stream, tvs, pairs = pinned_cases()[n]
        assert tuple(oracle_outputs(stream, tvs, pairs)) == PINNED_RANDOM[n]

    @pytest.mark.parametrize("denom", sorted(PINNED_DEMO))
    def test_demo_betweenness(self, demo, denom):
        got = grid_betweenness(demo, DEMO_TARGETS, GridSpec(Fraction(1, denom)))
        assert [str(x) for x in got] == PINNED_DEMO[denom]

    def test_windowed_contribution(self, demo):
        got = grid_contribution(demo, "a", "e", tn(Q(9, 2), "c"),
                                GridSpec(Fraction(1, 8)), window=(Q(0), Q(16)))
        assert str(got) == PINNED_WINDOWED
