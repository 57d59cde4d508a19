"""Digest of exact outputs, to check that a change keeps every one of them.

    python3 scripts/exact_digest.py [--src DIR]

prints `<count> <sha256>` over the outputs of `betweenness` on seeded random
streams (up to 7 nodes and 14 segments, with int, integral-Fraction and
quarter times), queried at the window ends, the event times, the gap
midpoints and the gap thirds; of `latency_lists` from every source, read
after those queries (an int stream is its own twin, so these are the lists
`betweenness` filled), and of `latency` from every node at every probe
time to every node, on the same streams; of `parse_stream` on the
`serialize()` text of each of them (every field of the parsed stream and
of its twin, and one `betweenness`), so that the parser is checked on all
three time kinds and not only through the demo; of `vsp` from every node
at alpha, at the event times and at the gap midpoints to every later probe
time and node, on every other stream (of all three time kinds), so that
the sweep is checked directly and not only through `betweenness`; of
`contribution` and `cell_ratio` on a subset of them; of every entry point
of the grid oracle on every 20th stream (all three time kinds), at omega
and every third of the sorted window ends, event times and gap midpoints:
`grid_betweenness` at steps 1/8 and 1/16 (also with the nodes of one call
at different probe times), and `grid_fastest` (with and without
`arrive_by`), `grid_count_shortest` and a windowed `grid_contribution` at
step 1/8, and `grid_count_shortest`, `grid_betweenness` (the nodes of one
call at different probe times) and `grid_fastest` again at step 1/32,
where the runs of grid indices with one snapshot are long, so that a
change to the oracle's scans, grid table or run crossing that moves an
estimate changes the digest; and of
`profile(demo, 1000)`.  Each output is hashed with its query and the type
of every number, so an int that turns into an equal Fraction changes the
digest.

DIR is the directory holding the `linkstream` package (default: `src/`
next to this script).  The streams are built here, not read from the
tree, so one copy of this script digests two trees: a change that keeps
every exact output prints the same line on both.
"""

import argparse
import hashlib
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STREAMS = 240  # betweenness streams; every CONTRIB_EVERY-th also gets pairs
CONTRIB_EVERY = 6
VSP_EVERY = 2  # every VSP_EVERY-th stream (all three time kinds) gets vsp
ORACLE_EVERY = 20  # every ORACLE_EVERY-th stream (all three time kinds)
ORACLE_STEPS = (Fraction(1, 8), Fraction(1, 16))  # gets the grid oracle
LONG_RUN_STEP = Fraction(1, 32)  # and three entry points at this step too
TIME_KINDS = {
    "int": lambda k: k,
    "fraction": Fraction,
    "quarter": lambda k: Fraction(k, 4),
}


def random_stream(ls, rng, kind):
    """A stream on [0, horizon] whose times are made by TIME_KINDS[kind]
    from random ints (quarters of the unit for "quarter")."""
    time = TIME_KINDS[kind]
    ticks = 4 if kind == "quarter" else 1
    nodes = "abcdefg"[:rng.randint(2, 7)]
    horizon = ticks * rng.randint(6, 24)
    presence = {}
    for _ in range(rng.randint(1, 14)):
        pair = tuple(sorted(rng.sample(nodes, 2)))
        b = rng.randint(0, horizon - 1)
        e = rng.randint(b, min(horizon, b + rng.randint(0, 6 * ticks)))
        presence.setdefault(pair, []).append((time(b), time(e)))
    return ls.LinkStream(time(0), time(horizon), nodes, presence)


def probe_times(stream):
    """Window ends, event times, and the midpoint and thirds of every gap."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    times = set(bounds)
    for a, b in zip(bounds, bounds[1:]):
        times.update((a + Fraction(b - a, 2), a + Fraction(b - a, 3),
                      a + Fraction(2 * (b - a), 3)))
    return sorted(times)


def sweep_sources(stream):
    """alpha, the event times and the midpoint of every gap."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    mids = {a + Fraction(b - a, 2) for a, b in zip(bounds, bounds[1:])}
    return sorted({stream.alpha, *stream.event_times(), *mids})


def parse_outputs(ls, n, stream, times):
    """(query, output) lines of `parse_stream` on the stream's `serialize()`
    text: every field of the parsed stream and of its twin at its own L,
    each time typed, and `betweenness` of the parsed stream at the middle
    probe time and one node."""
    parsed = ls.parse_stream(stream.serialize())
    twin, scale = parsed.lattice()
    for kind, part in (("S", parsed), ("T", twin)):
        presence = tuple((pair, tuple(map(typed, ivs)))
                         for pair, ivs in part.presence.items())
        yield ((kind, n, typed(scale)),
               "%s %s %s %s %s" % (typed(part.alpha), typed(part.omega), part.nodes,
                                   presence, typed(tuple(part.event_times()))))
    tv = ls.TemporalNode(times[len(times) // 2],
                         parsed.nodes[n % len(parsed.nodes)])
    yield ("SB", n, typed(tuple(tv))), typed(ls.betweenness(parsed, tv))


def vsp_outputs(ls, n, stream, times):
    """(query, output) lines of `vsp` from every node at every sweep source
    time to every node at every later time of `times`."""
    for s in sweep_sources(stream):
        for u in stream.nodes:
            src = ls.TemporalNode(s, u)
            for t in times[bisect_left(times, s):]:
                for w in stream.nodes:
                    dst = ls.TemporalNode(t, w)
                    yield (("V", n, typed(tuple(src)), typed(tuple(dst))),
                           typed(ls.vsp(stream, src, dst)))


def oracle_outputs(ls, n, stream):
    """(query, output) lines of the grid oracle at the probe times: omega
    and every third of the sorted window ends, event times and gap
    midpoints.  At every step of ORACLE_STEPS, `grid_betweenness` in one
    call for every node at each probe time, and in one call for every node
    at a probe time of its own (see `spread`).  At the first step, from every
    node at every probe time: `grid_fastest` to every node, by omega and by
    that probe time and every third later one; `grid_count_shortest` to
    every node at those times; and `grid_contribution` of every ordered
    pair at the node at that time next in the stream's order, over the
    window from the middle probe time to omega.  At LONG_RUN_STEP, where
    many grid indices share each snapshot, `grid_count_shortest` from every
    node at every probe time to every node at that probe time and every
    third later one, `grid_betweenness` at the `spread` nodes, and
    `grid_fastest` from every node at every probe time to every node."""
    bounds = sorted({stream.alpha, stream.omega, *stream.event_times()})
    mids = {a + Fraction(b - a, 2) for a, b in zip(bounds, bounds[1:])}
    times = sorted({*bounds, *mids})
    probes = sorted({*times[::3], stream.omega})
    # the middle probe time down to alpha, one per node in turn: the first
    # node sits at the latest of them, so the last queried index is not the
    # final query's, and the other queries lie before it
    spread = probes[len(probes) // 2::-1]
    for step in ORACLE_STEPS:
        grid = ls.GridSpec(step)
        for t in probes:
            tvs = [ls.TemporalNode(t, v) for v in stream.nodes]
            for tv, value in zip(tvs, ls.grid_betweenness(stream, tvs, grid)):
                yield ("G", n, typed(step), typed(tuple(tv))), typed(value)
        tvs = [ls.TemporalNode(spread[k % len(spread)], v)
               for k, v in enumerate(stream.nodes)]
        for tv, value in zip(tvs, ls.grid_betweenness(stream, tvs, grid)):
            yield ("GM", n, typed(step), typed(tuple(tv))), typed(value)
    grid = ls.GridSpec(ORACLE_STEPS[0])
    window = (probes[len(probes) // 2], stream.omega)
    nodes = stream.nodes
    for i, t in enumerate(probes):
        for k, u in enumerate(nodes):
            src = ls.TemporalNode(t, u)
            query = (n, typed(tuple(src)))
            tv = ls.TemporalNode(t, nodes[(k + 1) % len(nodes)])
            for w in nodes:
                yield (("GF",) + query + (w,),
                       typed(ls.grid_fastest(stream, src, w, grid)))
                yield (("GC",) + query + (w, typed(tuple(tv))),
                       typed(ls.grid_contribution(stream, u, w, tv, grid,
                                                  window=window)))
                for t2 in probes[i::3]:
                    dst = ls.TemporalNode(t2, w)
                    yield (("GF",) + query + (w, typed(t2)),
                           typed(ls.grid_fastest(stream, src, w, grid,
                                                 arrive_by=t2)))
                    yield (("GS",) + query + (typed(tuple(dst)),),
                           typed(ls.grid_count_shortest(stream, src, dst,
                                                        grid)))
    grid = ls.GridSpec(LONG_RUN_STEP)
    tvs = [ls.TemporalNode(spread[k % len(spread)], v)
           for k, v in enumerate(nodes)]
    for tv, value in zip(tvs, ls.grid_betweenness(stream, tvs, grid)):
        yield ("GLM", n, typed(tuple(tv))), typed(value)
    for i, t in enumerate(probes):
        for u in nodes:
            src = ls.TemporalNode(t, u)
            for w in nodes:
                yield (("GLF", n, typed(tuple(src)), w),
                       typed(ls.grid_fastest(stream, src, w, grid)))
            for t2 in probes[i::3]:
                for w in nodes:
                    dst = ls.TemporalNode(t2, w)
                    yield (("GL", n, typed(tuple(src)), typed(tuple(dst))),
                           typed(ls.grid_count_shortest(stream, src, dst,
                                                        grid)))


def typed(value):
    """repr of a value with the type of each number in it."""
    if isinstance(value, tuple):
        return "(%s)" % ",".join(map(typed, value))
    if value is None:
        return "None"
    return "%s:%s" % (type(value).__name__, value)


def outputs(ls):
    """(query, output) lines, in a fixed order."""
    rng = random.Random(2102)
    kinds = list(TIME_KINDS)
    for n in range(STREAMS):
        stream = random_stream(ls, rng, kinds[n % len(kinds)])
        times = probe_times(stream)
        for t in times:
            for v in stream.nodes:
                tv = ls.TemporalNode(t, v)
                yield ("B", n, typed(tuple(tv))), typed(ls.betweenness(stream, tv))
        for u in stream.nodes:
            lists = ls.latency_lists(stream, u)
            for w in stream.nodes:
                yield ("L", n, u, w), typed(tuple(lists[w]))
        for t in times:
            for u in stream.nodes:
                src = ls.TemporalNode(t, u)
                for w in stream.nodes:
                    yield (("D", n, typed(tuple(src)), w),
                           typed(ls.latency(stream, src, w)))
        yield from parse_outputs(ls, n, stream, times)
        if n % VSP_EVERY == 0:
            yield from vsp_outputs(ls, n, stream, times)
        if n % ORACLE_EVERY == 0:
            yield from oracle_outputs(ls, n, stream)
        if n % CONTRIB_EVERY:
            continue
        for u in stream.nodes:
            lists = ls.latency_lists(stream, u)
            for w in stream.nodes:
                for t in times[::3]:
                    for v in stream.nodes:
                        tv = ls.TemporalNode(t, v)
                        query = (n, u, w, typed(tuple(tv)))
                        res = ls.contribution(stream, u, w, tv, lists[w])
                        anchor = res.anchor and tuple(res.anchor)
                        yield ("C",) + query, typed((res.value, anchor))
                        if anchor is None:
                            continue
                        s, a = anchor
                        for i in (s, Fraction(stream.alpha + s, 2)):
                            for j in (a, Fraction(a + stream.omega, 2)):
                                ratio = ls.cell_ratio(stream, u, w, tv,
                                                      lists[w], i, j)
                                yield (("R",) + query + (typed((i, j)),),
                                       typed(ratio))
    demo = ls.parse_stream((ROOT / "tests" / "data" / "demo.ls").read_text())
    for tv, value in ls.profile(demo, 1000).samples:
        yield ("P", typed(tuple(tv))), typed(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="directory holding the linkstream package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import linkstream as ls

    digest = hashlib.sha256()
    count = 0
    for query, output in outputs(ls):
        digest.update(("%s %s\n" % (query, output)).encode())
        count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
