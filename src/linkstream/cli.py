"""Command-line front end.

Subcommands: volumes, latencies, contrib, betweenness, profile.  Exit codes:
0 on success, 1 on input errors (diagnostic on stderr), 2 on usage errors.
"""

import argparse
import functools
import sys
from fractions import Fraction
from math import lcm

from .betweenness import betweenness, profile
from .contribution import contribution
from .latencies import latency_lists
from .numbers import format_decimal, parse_time
from .oracle import GridSpec, grid_betweenness, grid_count_shortest
from .shortest_volumes import vsp
from .stream import StreamError, TemporalNode, parse_stream


def _digits(text):
    """argparse type of --decimal: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        msg = "invalid int value: %r" % text
        raise argparse.ArgumentTypeError(msg) from None
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % n)
    return n


@functools.cache  # built on the first call, then shared by every `run`
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="linkstream",
        description="Betweenness of temporal nodes in link streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--stream", required=True, metavar="FILE",
                       help="link-stream file")
        p.add_argument("--decimal", type=_digits, metavar="N",
                       help="render numbers with N decimal places")
        return p

    p = add("volumes", "volume and distance of shortest paths")
    p.add_argument("--from", dest="src", required=True, nargs=2,
                   metavar=("T", "NODE"))
    p.add_argument("--to", dest="dst", required=True, nargs=2,
                   metavar=("T", "NODE"))
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the grid oracle")

    p = add("latencies", "latency lists from a source node")
    p.add_argument("--source", required=True, metavar="NODE")

    p = add("contrib", "contribution of a node pair to a betweenness value")
    p.add_argument("--source", required=True, metavar="NODE")
    p.add_argument("--dest", required=True, metavar="NODE")
    p.add_argument("--at", required=True, nargs=2, metavar=("T", "NODE"))

    p = add("betweenness", "betweenness of one temporal node")
    p.add_argument("--at", required=True, nargs=2, metavar=("T", "NODE"))
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the grid oracle")

    p = add("profile", "betweenness sampled on a regular grid for all nodes")
    p.add_argument("--samples", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=["csv"], default=None)

    return parser


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_stream(handle.read())


def _temporal_node(stream, pair):
    t, node = pair
    tn = TemporalNode(parse_time(t), node)
    stream.check_temporal_node(tn)
    return tn


def _fmt(value, args):
    if args.decimal is not None:
        return format_decimal(value, args.decimal)
    return str(value)


def _verify_steps(stream, *times):
    """Two grid steps refining the event/query-time lattice 8- and 16-fold."""
    base = Fraction(1, lcm(stream.scale(), *(t.denominator for t in times)))
    return GridSpec(base / 8), GridSpec(base / 16)


def _cmd_volumes(stream, args):
    src = _temporal_node(stream, args.src)
    dst = _temporal_node(stream, args.dst)
    res = vsp(stream, src, dst)
    print("%s %d" % (_fmt(res.volume.size, args), res.volume.dim))
    if res.distance is None:
        print("distance unreachable")
    else:
        print("distance %d" % res.distance)
    if args.verify:
        g8, _ = _verify_steps(stream, src.time, dst.time)
        length, _count = grid_count_shortest(stream, src, dst, g8)
        if length != res.distance:
            print(
                "verify: oracle length %s != distance %s"
                % (length, res.distance),
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_latencies(stream, args):
    lists = latency_lists(stream, args.source)
    for w in stream.nodes:
        pairs = " ".join("(%s,%s)" % (_fmt(s, args), _fmt(a, args))
                         for s, a in lists[w])
        print("%s: %s" % (w, pairs) if pairs else "%s:" % w)
    return 0


def _cmd_contrib(stream, args):
    tv = _temporal_node(stream, args.at)
    lists = latency_lists(stream, args.source)
    stream.check_nodes(args.dest)
    res = contribution(stream, args.source, args.dest, tv, lists[args.dest])
    if res.anchor is None:
        print("anchor none")
    else:
        print("anchor (%s,%s)" % (_fmt(res.anchor.start, args),
                                  _fmt(res.anchor.arrival, args)))
    print("contribution %s" % _fmt(res.value, args))
    return 0


def _cmd_betweenness(stream, args):
    tv = _temporal_node(stream, args.at)
    value = betweenness(stream, tv)
    print(_fmt(value, args))
    if args.verify:
        g1, g2 = _verify_steps(stream, tv.time)
        # finer grid first, so one too large for the oracle fails at once
        e2 = grid_betweenness(stream, [tv], g2)[0]
        e1 = grid_betweenness(stream, [tv], g1)[0]
        estimate = 2 * e2 - e1
        exact = Fraction(value)
        gap = abs(estimate - exact)
        if gap > max(abs(exact) * Fraction(1, 20), Fraction(1, 10)):
            print(
                "verify: oracle estimate %s far from %s"
                % (float(estimate), value),
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_profile(stream, args):
    if args.samples < 1:
        raise StreamError("--samples must be >= 1")
    result = profile(stream, args.samples)
    sep = "," if args.format == "csv" else " "
    if args.format == "csv":
        print("node,time,betweenness")
    for tv, value in result.samples:
        print(sep.join((tv.node, _fmt(tv.time, args), _fmt(value, args))))
    return 0


_COMMANDS = {
    "volumes": _cmd_volumes,
    "latencies": _cmd_latencies,
    "contrib": _cmd_contrib,
    "betweenness": _cmd_betweenness,
    "profile": _cmd_profile,
}


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](_load(args.stream), args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
