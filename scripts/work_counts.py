"""Work counts of the grid oracle and of the exact pipeline over the
benchmark pools, one line per pool.

    python3 scripts/work_counts.py [--src DIR]

runs each `betweenness --verify` query of the oracle-verify pool through
the CLI, then `profile(demo, 1000)` on a fresh parse of perfbench/demo.ls
and again on the same parse, then the cold and warm `betweenness` queries of each synth-session session,
each session on a fresh parse of its stream (perfbench/workloads.py, every
pool in pool order, each query once), and prints:

    oracle-verify: pair_walks=<n> usable_starts=<n> zero_duration=<n> pair_counts=<n>
    profile: evaluations=<n> scans=<n> steps=<n> passes=<n> frames=<n> sweeps=<n>
    profile-repeat: evaluations=<n> scans=<n> steps=<n> passes=<n> frames=<n> sweeps=<n>
    synth-session: evaluations=<n> scans=<n> steps=<n> passes=<n> frames=<n> sweeps=<n>

`pair_walks` counts the calls of `oracle._grid_contributions` (one per
node pair that a grid's scan walks), `usable_starts` the first crossings
from which those pairs reach their destination, `zero_duration` those that
arrive at their own index, and `pair_counts` the calls of
`oracle._pair_counts`.  `evaluations` counts the calls of the public
`betweenness` (`profile` makes none), `scans` the boundary scans (calls of
`contribution._scan`, one per prev or next list), `steps` the sweep steps
(calls of `shortest_volumes._advance`), `passes` the passes over the node
pairs of one slot and node (calls of `betweenness._pass`: one per
`betweenness` query, and one per slot and node that a `profile` samples;
0 on a tree without it), `frames` the anchor frames built (calls of
`contribution._frame`), and `sweeps` the sweep tables built (calls of
`SweepTables.__init__`).  The counts do not depend
on timing, so two trees can be compared line by line.

DIR is the directory holding the `linkstream` package (default: `src/`
next to this script).  The workload module is imported read-only, without
writing bytecode, and the functions are wrapped from outside, in their
modules, as perfbench/tracing.py wraps the public ones.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def wrap(module, name, count):
    """Call count with the arguments of each call of module.name, if the
    module has it."""
    fn = getattr(module, name, None)
    if fn is None:
        return

    def counted(*args, **kwargs):
        count(*args, **kwargs)
        return fn(*args, **kwargs)

    setattr(module, name, counted)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="directory holding the linkstream package")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import linkstream as ls
    import linkstream.cli

    counts = Counter()
    modules = sys.modules  # `betweenness` is also the name of a function

    def tally(key):
        return lambda *args, **kwargs: counts.update((key,))

    def walked(table, u, w, arrivals, tv_idx):
        counts["pair_walks"] += 1
        counts["usable_starts"] += len(arrivals)
        counts["zero_duration"] += sum(ks == ka for ks, ka in arrivals.items())

    wrap(modules["linkstream.oracle"], "_grid_contributions", walked)
    wrap(modules["linkstream.oracle"], "_pair_counts", tally("pair_counts"))
    wrap(modules["linkstream.betweenness"], "betweenness", tally("evaluations"))
    wrap(modules["linkstream.contribution"], "_scan", tally("scans"))
    wrap(modules["linkstream.shortest_volumes"], "_advance", tally("steps"))
    wrap(modules["linkstream.betweenness"], "_pass", tally("passes"))
    wrap(modules["linkstream.contribution"], "_frame", tally("frames"))
    wrap(modules["linkstream.shortest_volumes"].SweepTables, "__init__",
         tally("sweeps"))

    def report(name, keys):
        print("%s: %s" % (name, " ".join("%s=%d" % (key, counts[key])
                                         for key in keys)))
        counts.clear()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.ls"
        for session in workloads.pool("oracle-verify"):
            path.write_text(session.text)
            cli_args = [session.verify[0], "--stream", str(path),
                        *session.verify[1:]]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                linkstream.cli.run(cli_args)
    report("oracle-verify",
           ("pair_walks", "usable_starts", "zero_duration", "pair_counts"))
    between = modules["linkstream.betweenness"].betweenness
    (prof,) = (e for e in workloads.pool("demo-profile")
               if isinstance(e, workloads.Profile))
    parsed = ls.parse_stream(prof.text)
    keys = ("evaluations", "scans", "steps", "passes", "frames", "sweeps")
    ls.profile(parsed, prof.samples)
    report("profile", keys)
    ls.profile(parsed, prof.samples)
    report("profile-repeat", keys)
    for session in workloads.pool("synth-session"):
        stream = ls.parse_stream(session.text)
        for t, node in (session.cold, *session.warm):
            between(stream, ls.TemporalNode(ls.parse_time(t), node))
    report("synth-session", keys)


if __name__ == "__main__":
    main()
