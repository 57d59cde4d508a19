#!/usr/bin/env python3
"""The linkstream benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs one workload (see README.md) in this single-threaded process for S
seconds on inputs chosen by the seed, checks every exact output against
golden.json, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, measured untraced.  With --trace 1 every operation
runs twice, untraced and then traced, and the metrics are the per-layer
ones plus the tracing overhead.  The line before the result describes the
run: its inputs, sample counts and tail percentiles.  `--workload all` runs
each workload in its own process, one after the other.

The program is imported from ../src of this file; nothing is installed.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from math import lcm
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN_PATH = HERE / "golden.json"
SETUP_REPEATS = 31

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("cold_query_s.p50", "s"),
    ("cold_query_s.tail", "s"),
    ("warm_query_s.p50", "s"),
    ("warm_query_s.tail", "s"),
    ("verify_query_s.p50", "s"),
    ("verify_query_s.tail", "s"),
    ("verify_accept_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _span_s(name):
    return lambda t: t.self_s(name)


def _span_calls(name):
    return lambda t: t.calls(name)


def _count(name):
    return lambda t: t.counts[name]


def _share(part, whole):
    def get(t):
        den = whole(t)
        return part(t) / den if den else 0.0

    return get


PER_LAYER = (
    ("stream.parse_stream.s", "s", _span_s("stream.parse_stream")),
    ("stream.graph_at.calls", "count", _span_calls("stream.graph_at")),
    ("stream.graph_at.s", "s", _span_s("stream.graph_at")),
    ("stream.snapshots", "count", _count("stream.snapshots")),
    ("static_graph.bfs_counts.calls", "count", _span_calls("static_graph.bfs_counts")),
    ("static_graph.bfs_counts.s", "s", _span_s("static_graph.bfs_counts")),
    ("static_graph.connected_components.calls", "count",
     _span_calls("static_graph.connected_components")),
    ("static_graph.connected_components.s", "s",
     _span_s("static_graph.connected_components")),
    ("shortest_volumes.vsp.calls", "count", _span_calls("shortest_volumes.vsp")),
    ("shortest_volumes.vsp.s", "s", _span_s("shortest_volumes.vsp")),
    ("shortest_volumes.reachable.calls", "count", _span_calls("shortest_volumes.reachable")),
    ("shortest_volumes.sweep_builds", "count", _span_calls("shortest_volumes.sweep_build")),
    ("shortest_volumes.sweep_build.s", "s", _span_s("shortest_volumes.sweep_build")),
    ("shortest_volumes.sweep_hit_ratio", "ratio", _share(
        lambda t: t.calls("shortest_volumes.sweep_tables")
        - t.calls("shortest_volumes.sweep_build"),
        _span_calls("shortest_volumes.sweep_tables"))),
    ("shortest_volumes.advance_steps", "count", _count("shortest_volumes.advance_steps")),
    ("volumes.ops", "count", _count("volumes.ops")),
    ("latencies.latency_lists.calls", "count", _span_calls("latencies.latency_lists")),
    ("latencies.latency_lists.s", "s", _span_s("latencies.latency_lists")),
    ("latencies.pairs", "count", _count("latencies.pairs")),
    ("contribution.contribution.calls", "count", _span_calls("contribution.contribution")),
    ("contribution.contribution.s", "s", _span_s("contribution.contribution")),
    ("contribution.nonzero_ratio", "ratio", _share(
        _count("contribution.nonzero"), _span_calls("contribution.contribution"))),
    ("contribution.boundary_scans", "count", _count("contribution.boundary_scans")),
    ("contribution.cells", "count", _count("contribution.cells")),
    ("betweenness.betweenness.calls", "count", _span_calls("betweenness.betweenness")),
    ("betweenness.betweenness.s", "s", _span_s("betweenness.betweenness")),
    ("oracle.grid_betweenness.calls", "count", _span_calls("oracle.grid_betweenness")),
    ("oracle.grid_count_shortest.calls", "count", _span_calls("oracle.grid_count_shortest")),
    ("oracle.s", "s", lambda t: sum(
        own for name, (_, _, own) in t.spans.items() if name.startswith("oracle."))),
    ("oracle.grid_steps", "count", _count("oracle.grid_steps")),
    ("cli.run.s", "s", _span_s("cli.run")),
)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def tail(samples):
    """(value, percentile) of the highest percentile that still has at
    least 10 samples beyond it.  Below 20 samples that percentile would lie
    under the median, so the maximum is reported instead (percentile 100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], round(100.0 * (n - 10) / n, 1)


# -- timing --------------------------------------------------------------

# CPU seconds that `_calibration` takes at the reference speed.  Operations
# are timed in CPU time, so time the process spends descheduled while other
# work holds the CPU is not counted.  The machine this benchmark was written
# on also switches between two CPU speeds about 1.7x apart, staying at one
# for 50 ms to a few seconds, so a raw time mostly tells which speed an
# operation happened to get.  Every timed block is therefore scaled to the
# reference speed by a fixed calibration loop, timed just before the block,
# every PROBE_PERIOD_S seconds inside it, and just after it.
CAL_REF_S = 0.00055
PROBE_PERIOD_S = 0.02


def _calibration():
    """CPU seconds for a fixed piece of pure-Python work of the program's kind
    (rational arithmetic, tuples, dicts).  The collector is held off so that
    a collection the program's garbage is due for does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        acc, seen = Fraction(0), {}
        for i in range(1, 60):
            acc += Fraction(i, i + 3) * Fraction(7, 5)
            seen[(i, acc.denominator % 97)] = acc
        return thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """Times blocks: `raw` CPU seconds and `seconds` at the reference
    speed, with running totals of both.  While a block runs, a SIGALRM
    handler times the calibration loop every PROBE_PERIOD_S seconds.  The
    block is cut at those probes into intervals; each interval is scaled by
    CAL_REF_S over the calibration time at its ends (the mean of the two
    speeds), and the scaled intervals are summed.  The probes' own time is
    left out of both `raw` and `seconds`.  A calibration time over twice the
    block's median is taken as the median: a probe that lands in a slow spot
    of the program, such as a page fault, would otherwise weigh far beyond
    its share."""

    def __init__(self):
        self.total_raw = self.total = 0.0

    def _probe(self, _signum, _frame):
        start = thread_time()
        cal = _calibration()
        self._probes.append((start, cal, thread_time() - start))

    def __enter__(self):
        self._probes = []
        self._before = statistics.median(_calibration() for _ in range(3))
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._t0 = thread_time()
        return self

    def __exit__(self, *exc):
        end = thread_time()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        after = statistics.median(_calibration() for _ in range(3))
        # (CPU time less the probes before it, calibration time) at the
        # block's start, at each probe and at its end
        points = [(self._t0, self._before)]
        probing = 0.0
        for start, cal, spent in self._probes:
            points.append((start - probing, cal))
            probing += spent
        points.append((end - probing, after))
        typical = statistics.median(cal for _, cal in points)
        speeds = [(t, 1.0 / (cal if cal <= 2 * typical else typical)) for t, cal in points]
        self.raw = end - self._t0 - probing
        self.seconds = CAL_REF_S * sum(
            (t1 - t0) * (v0 + v1) / 2 for (t0, v0), (t1, v1) in zip(speeds, speeds[1:])
        )
        self.total_raw += self.raw
        self.total += self.seconds
        return False


# -- setup ---------------------------------------------------------------


def _import_program():
    for name in [m for m in sys.modules if m == "linkstream" or m.startswith("linkstream.")]:
        del sys.modules[name]
    package = importlib.import_module("linkstream")
    importlib.import_module("linkstream.cli")
    if Path(package.__file__).resolve().parent != (SRC / "linkstream").resolve():
        raise ImportError("linkstream imported from %s, not %s" % (package.__file__, SRC))
    return package


def setup(workload, workdir):
    """Import the program, generate the pool and write its stream files;
    repeated, reporting the median time."""
    times = []
    watch = Stopwatch()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        with watch:
            package = _import_program()
            entries = workloads.pool(workload)
            workdir.mkdir(parents=True)
            paths = {}
            for entry in entries:
                path = workdir / (entry.key.replace("/", "-") + ".ls")
                path.write_text(entry.text, encoding="utf-8")
                paths[entry.key] = path
        times.append(watch.seconds)
    return statistics.median(times), package, entries, paths


# -- operations ----------------------------------------------------------


class Recorder:
    """Timings, counts and rendered outputs of a run's operations."""

    def __init__(self, golden):
        self.golden = golden
        self.cold, self.warm, self.verify = [], [], []
        self.points = self.attempted = self.failed = 0
        self.verified = self.accepted = 0
        self.outputs = []
        self.watch = Stopwatch()  # every timed operation

    def counts(self):
        return len(self.cold), len(self.warm), len(self.verify), self.verified, self.accepted

    def check(self, key, index, rendered):
        self.attempted += 1
        self.outputs.append((key, index, rendered))
        expected = self.golden.get(key)
        if rendered is None or expected is None or digest(rendered) != expected[index]:
            self.failed += 1
            return False
        return True


def _query(package, stream, query):
    t, node = query
    return str(package.betweenness(stream, package.TemporalNode(package.parse_time(t), node)))


def _run_cli(cli, argv, watch):
    """(seconds, (exit code, standard output)) of one in-process CLI call;
    the exit code is None if the call raised."""
    out = io.StringIO()
    with watch:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
        except Exception:
            code = None
    return watch.seconds, (code, out.getvalue())


def _query_chain(package, session, watch):
    """(seconds, rendered value) of the cold query on a freshly parsed
    stream, then of each warm query on that stream; a value is None if its
    query raised or no stream was left to ask."""
    timed = []
    stream = value = None
    with watch:
        try:
            stream = package.parse_stream(session.text)
            value = _query(package, stream, session.cold)
        except Exception:  # a raising operation is a failed one; keep running
            stream = None
    timed.append((watch.seconds, value))
    for query in session.warm:
        value = None
        with watch:
            if stream is not None:
                try:
                    value = _query(package, stream, query)
                except Exception:
                    pass
        timed.append((watch.seconds, value))
    return timed


def run_session(package, session, path, rec):
    watch = rec.watch
    chains = [_query_chain(package, session, watch) for _ in range(session.repeats)]
    for i, runs in enumerate(zip(*chains)):
        (rec.warm if i else rec.cold).append(statistics.median(seconds for seconds, _ in runs))
        values = {value for _, value in runs}
        value = values.pop() if len(values) == 1 else None  # repeats disagree
        rec.points += len(runs) * rec.check(session.key, i, value)

    argv = [session.verify[0], "--stream", str(path), *session.verify[1:]]
    cli = sys.modules[package.__name__ + ".cli"]
    runs = [_run_cli(cli, argv, watch) for _ in range(session.verify_repeats)]
    rec.verify.append(statistics.median(seconds for seconds, _ in runs))
    outcomes = {outcome for _, outcome in runs}
    code, printed = outcomes.pop() if len(outcomes) == 1 else (None, None)  # repeats disagree
    if rec.check(session.key, len(session.warm) + 1, printed if code in (0, 1) else None):
        rec.verified += 1
        rec.accepted += code == 0
        rec.points += session.verify[0] == "betweenness"


def run_profile(package, prof, rec):
    rendered = None
    with rec.watch:
        try:
            stream = package.parse_stream(prof.text)
            result = package.profile(stream, prof.samples, threads=1)
        except Exception:
            result = None
    if result is not None:
        rendered = "".join("%s %s %s\n" % (tv.node, tv.time, v) for tv, v in result.samples)
    if rec.check(prof.key, 0, rendered):
        rec.points += len(result.samples)


def run_entry(package, entry, paths, rec):
    # The program keeps every stream it has queried alive.  Collect and
    # freeze what earlier operations left, outside the timing, so that an
    # operation's collector work does not depend on what ran before it.
    gc.collect()
    gc.freeze()
    if isinstance(entry, workloads.Profile):
        run_profile(package, entry, rec)
    else:
        run_session(package, entry, paths[entry.key], rec)


# -- inputs --------------------------------------------------------------


def describe_inputs(package, entries):
    """Per visited pool entry: the stream's size and time lattice, and how
    its queries or profile samples fall on the event-time gaps."""
    described = []
    for entry in entries:
        stream = package.parse_stream(entry.text)
        events = stream.event_times()
        info = {
            "key": entry.key,
            "nodes": len(stream.nodes),
            "segments": stream.segment_count(),
            "event_times": len(events),
            "time_denominator": lcm(*(t.denominator for t in events)) if events else 1,
        }
        if isinstance(entry, workloads.Profile):
            span = stream.omega - stream.alpha
            times = [stream.alpha + package.Q(i) * span / entry.samples
                     for i in range(entry.samples + 1)]
            per_gap = _per_gap(events, times)
            info["samples_per_gap"] = {
                "gaps": len(per_gap),
                "min": min(per_gap, default=0),
                "median": statistics.median(per_gap) if per_gap else 0,
                "max": max(per_gap, default=0),
            }
        else:
            times = [package.parse_time(t) for t, _ in (entry.cold, *entry.warm)]
            per_gap = _per_gap(events, times)
            info["queries"] = len(times)
            info["queries_in_gaps"] = sum(per_gap)
            info["queries_per_gap_hit"] = (
                sum(per_gap) / len(per_gap) if per_gap else 0
            )
        described.append(info)
    return described


def _per_gap(events, times):
    """Number of `times` strictly inside each open gap between consecutive
    event times (or window ends) that holds at least one of them."""
    counts = {}
    for t in times:
        i = bisect_left(events, t)
        if i < len(events) and events[i] == t:
            continue
        counts[i] = counts.get(i, 0) + 1
    return sorted(counts.values())


# -- the run -------------------------------------------------------------


def _timing(name, passes, metrics, details):
    """p50 and tail of each pass's samples of one kind, and their medians
    over the passes.  Every completed pass visits the same entries, so each
    pass's tail is the same percentile whatever the number of passes."""
    p50s = [statistics.median(samples) for samples in passes]
    tails = [tail(samples) for samples in passes]
    metrics[name + ".p50"] = statistics.median(p50s)
    metrics[name + ".tail"] = statistics.median(value for value, _ in tails)
    details[name] = {"samples": [len(samples) for samples in passes],
                     "tail_percentile": tails[0][1], "p50": p50s,
                     "tail": [value for value, _ in tails]}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, golden=None):
    """One measured run; returns (details, result) as printed.

    Operations are started until `seconds` have passed and the first pass
    over the pool is complete.  Latencies are summarised per completed pass
    and verify verdicts are taken over the completed passes, so that every
    run measures each pool entry equally often however many passes it
    completes; peak memory is read at the end of the first pass.
    """
    if golden is None:
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    workdir = HERE / (".work-%s-%d" % (workload, seed))
    try:
        setup_s, package, entries, paths = setup(workload, workdir)
        rec = Recorder(golden)
        plain = Recorder(golden)
        tracer = Tracer()
        bounds = [rec.counts()]  # counts at the start and end of each completed pass
        peak_rss_mb = None
        start = perf_counter()
        for order in workloads.passes(workload, seed, entries):
            for entry in order:
                if perf_counter() - start >= seconds and len(bounds) > 1:
                    break
                if trace:
                    run_entry(package, entry, paths, plain)
                    with tracer.installed(package.__name__):
                        run_entry(package, entry, paths, rec)
                else:
                    run_entry(package, entry, paths, rec)
            else:
                bounds.append(rec.counts())
                if peak_rss_mb is None:
                    peak_rss_mb = _peak_rss_mb()
                continue
            break
        elapsed = perf_counter() - start
        passes = len(bounds) - 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "passes": passes}
    attempted, failed = rec.attempted, rec.failed
    if trace:
        metrics = {name: get(tracer) for name, _, get in PER_LAYER}
        metrics["trace.overhead_ratio"] = rec.watch.total / plain.watch.total - 1.0
        units = {name: unit for name, unit, _ in PER_LAYER}
        units["trace.overhead_ratio"] = "ratio"
        mismatched = sum(a != b for a, b in zip(plain.outputs, rec.outputs))
        attempted += plain.attempted
        failed += plain.failed + mismatched
        details["traced_vs_untraced_mismatches"] = mismatched
        details["untraced_s"] = plain.watch.total
        details["traced_s"] = rec.watch.total
        details["spans"] = tracer.summary()
    else:
        metrics = {"setup_s": setup_s, "points_per_s": rec.points / rec.watch.total}
        for kind, (name, samples) in enumerate((("cold_query_s", rec.cold),
                                                ("warm_query_s", rec.warm),
                                                ("verify_query_s", rec.verify))):
            _timing(name, [samples[a[kind]:b[kind]] for a, b in zip(bounds, bounds[1:])],
                    metrics, details)
        verified, accepted = bounds[-1][3:]
        metrics["verify_accept_ratio"] = accepted / verified if verified else 0.0
        metrics["peak_rss_mb"] = peak_rss_mb
        units = dict(END_TO_END)
        details["verified"] = verified
        details["false_rejects"] = verified - accepted
    details["points"] = rec.points
    details["elapsed_s"] = elapsed
    details["operations_raw_s"] = rec.watch.total_raw
    details["operations_s"] = rec.watch.total
    details["inputs"] = describe_inputs(package, {e.key: e for e in entries}.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return details, result


def run_all(seed, seconds):
    """Each workload in its own process, one after the other."""
    combined = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("workload %s exited with %d" % (workload, proc.returncode))
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        combined[workload] = json.loads(lines[-1])
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description="linkstream benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linkstream" / "__init__.py").is_file():
        print("error: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all runs untraced only")
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    details, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
