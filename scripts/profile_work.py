"""Work counts of the exact pipeline on the demo profile and the synth-session
queries.

    python3 scripts/profile_work.py [--src DIR]

runs `profile(demo, 1000)` on a fresh parse of perfbench/demo.ls, then the
cold and warm `betweenness` queries of each synth-session benchmark session
(perfbench/workloads.py, 12 entries, in pool order; each session on a
fresh parse of its stream), and prints one line of counts for each:

    profile: evaluations=<n> scans=<n> steps=<n>
    synth-session: evaluations=<n> scans=<n> steps=<n>

`evaluations` counts the calls of `betweenness`, `scans` the boundary scans
(calls of `contribution._scan`, one per prev or next list), and `steps` the
sweep steps (calls of `shortest_volumes._advance`).  The counts do not
depend on timing, so two trees can be compared line by line.

DIR is the directory holding the `linkstream` package (default: `src/`
next to this script).  The workload module is imported read-only, and the
functions are wrapped from outside, in their modules, as
perfbench/tracing.py wraps the public ones.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = ("evaluations", "scans", "steps")


def wrap(module, name, counts, key):
    """Count the calls of module.name under counts[key]."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    setattr(module, name, counted)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), metavar="DIR",
                        help="directory holding the linkstream package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import linkstream as ls

    # the package exports `betweenness` under its module's name
    between = sys.modules["linkstream.betweenness"]
    counts = Counter()
    wrap(between, "betweenness", counts, "evaluations")
    wrap(sys.modules["linkstream.contribution"], "_scan", counts, "scans")
    wrap(sys.modules["linkstream.shortest_volumes"], "_advance", counts,
         "steps")

    def report(name):
        print("%s: %s" % (name, " ".join("%s=%d" % (key, counts[key])
                                         for key in KEYS)))
        counts.clear()

    (prof,) = (e for e in workloads.pool("demo-profile")
               if isinstance(e, workloads.Profile))
    ls.profile(ls.parse_stream(prof.text), prof.samples)
    report("profile")
    for session in workloads.pool("synth-session"):
        stream = ls.parse_stream(session.text)
        for t, node in (session.cold, *session.warm):
            between.betweenness(stream, ls.TemporalNode(ls.parse_time(t), node))
    report("synth-session")


if __name__ == "__main__":
    main()
