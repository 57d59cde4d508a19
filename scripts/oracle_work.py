"""Work counts of the grid oracle's pair walks over the oracle-verify pool.

    python3 scripts/oracle_work.py [--src DIR]

runs each `betweenness --verify` query of the oracle-verify benchmark pool
(perfbench/workloads.py, 40 entries, in pool order) once, through the CLI,
and prints one line of counts:

    pair_walks=<n> usable_starts=<n> zero_duration=<n> pair_counts=<n>

`pair_walks` counts the calls of `_grid_contributions` (one per node pair
that a grid's scan walks), `usable_starts` the first crossings from which
those pairs reach their destination, `zero_duration` those that arrive at
their own index, and `pair_counts` the calls of `_pair_counts`.  The
counts do not depend on timing, so two trees can be compared line by line.

DIR is the directory holding the `linkstream` package (default: `src/`
next to this script).  The workload module is imported read-only, and the
two private functions are wrapped from outside, in their module, as
perfbench/tracing.py wraps the public ones.
"""

import argparse
import contextlib
import io
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def wrap(module, counts):
    """Count the calls of the pair walk and of the per-start pair counts."""
    walk, pair_counts = module._grid_contributions, module._pair_counts

    def counted_walk(table, u, w, arrivals, tv_idx):
        counts["pair_walks"] += 1
        counts["usable_starts"] += len(arrivals)
        counts["zero_duration"] += sum(ks == ka for ks, ka in arrivals.items())
        return walk(table, u, w, arrivals, tv_idx)

    def counted_pair_counts(*args):
        counts["pair_counts"] += 1
        return pair_counts(*args)

    module._grid_contributions = counted_walk
    module._pair_counts = counted_pair_counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="directory holding the linkstream package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import linkstream.cli
    import linkstream.oracle

    counts = Counter()
    wrap(linkstream.oracle, counts)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.ls"
        for session in workloads.pool("oracle-verify"):
            path.write_text(session.text)
            argv = [session.verify[0], "--stream", str(path),
                    *session.verify[1:]]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                linkstream.cli.run(argv)
    print(" ".join("%s=%d" % (key, counts[key]) for key in
                   ("pair_walks", "usable_starts", "zero_duration",
                    "pair_counts")))


if __name__ == "__main__":
    main()
