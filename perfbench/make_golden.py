#!/usr/bin/env python3
"""Regenerate golden.json: the exact outputs of every pool entry of every
workload, computed once by the program in ../src.

    python3 perfbench/make_golden.py

Only run this at a commit whose exact outputs are trusted: the benchmark
counts every output that differs from golden.json as a failed operation.
"""

import json
import shutil
import sys
from time import perf_counter

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    golden = {}
    for workload in workloads.WORKLOADS:
        workdir = run.HERE / (".work-golden-" + workload)
        t0 = perf_counter()
        try:
            _, package, entries, paths = run.setup(workload, workdir)
            rec = run.Recorder({})
            for entry in entries:
                run.run_entry(package, entry, paths, rec)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for key, index, rendered in rec.outputs:
            if rendered is None:
                raise SystemExit("%s output %d failed; no golden value" % (key, index))
            golden.setdefault(key, []).append(run.digest(rendered))
        for entry in entries:
            if isinstance(entry, workloads.Session) and entry.verify[0] == "betweenness":
                if golden[entry.key][-1] != run.digest(_rendered(rec, entry.key, 0) + "\n"):
                    raise SystemExit("%s: --verify printed another value" % entry.key)
        print("%s: %d entries in %.1f s" % (workload, len(entries), perf_counter() - t0))
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


def _rendered(rec, key, index):
    return next(r for k, i, r in rec.outputs if k == key and i == index)


if __name__ == "__main__":
    main()
