"""Per-layer tracing from outside the program.

`Tracer.installed()` rebinds the public functions of each linkstream module
(and a few methods) to wrappers that record spans and counts, and restores
the originals on exit.  `from .x import f` binds a second name to f in the
importing module, so every module attribute that *is* the original object
is rebound, not only the defining one.

A span records its call count, its inclusive time and its self time: the
inclusive time minus the time covered by the spans it caused.  Spans are
aggregated per name while the run goes, so memory stays flat however many
calls a run makes.  Functions of `volumes` are only counted: they are called
far too often to time without drowning the numbers they would explain.
"""

import sys
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from weakref import WeakKeyDictionary

LAYERS = (
    "stream",
    "static_graph",
    "shortest_volumes",
    "volumes",
    "latencies",
    "contribution",
    "betweenness",
    "oracle",
    "cli",
)
COUNTED_ONLY = ("volumes",)


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = Counter()
        self._stack = []  # time covered by children of each open span
        self._contrib = []  # [prev entries, next entries] per open contribution
        self._slots = WeakKeyDictionary()  # stream -> (event times, keys seen)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        stats = self.spans[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            result = None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur
                if after is not None:
                    after(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that compute counts from outside -----------------------------

    def _graph_at(self, args):
        stream, t = args[0], args[1]
        entry = self._slots.get(stream)
        if entry is None:
            entry = (stream.event_times(), set())
            self._slots[stream] = entry
        events, seen = entry
        i = bisect_left(events, t)
        key = ("event", i) if i < len(events) and events[i] == t else ("gap", i)
        if key not in seen:
            seen.add(key)
            self.counts["stream.snapshots"] += 1

    def _sweep_built(self, args, _result):
        tables = args[0]
        times = getattr(tables, "times", None)
        if times:
            self.counts["shortest_volumes.advance_steps"] += len(times) - 1

    def _state_at(self, args):
        tables, j = args[0], args[1]
        times = getattr(tables, "times", None)
        extensions = getattr(tables, "_extensions", None)
        if times is None or extensions is None:
            return
        k = bisect_left(times, j)
        on_table = k < len(times) and times[k] == j
        if not on_table and times[0] <= j and j not in extensions:
            self.counts["shortest_volumes.advance_steps"] += 1

    def _latency_lists(self, _args, result):
        if result is not None:
            self.counts["latencies.pairs"] += sum(len(l) for l in result.values())

    def _contribution_enter(self, _args):
        self._contrib.append([None, None])

    def _contribution_exit(self, _args, result):
        prev_n, next_n = self._contrib.pop()
        if result is None:
            return
        if result.value != 0:
            self.counts["contribution.nonzero"] += 1
        if prev_n is not None and next_n is not None:
            self.counts["contribution.cells"] += prev_n * next_n

    def _boundary(self, side):
        def after(_args, result):
            self.counts["contribution.boundary_scans"] += 1
            if result is not None and self._contrib:
                self._contrib[-1][side] = len(result.entries)

        return after

    def _grid_betweenness(self, args):
        stream, grid = args[0], args[2]
        n = len(stream.nodes)
        points = (stream.omega - stream.alpha) / Fraction(grid.step) + 1
        self.counts["oracle.grid_steps"] += n * (n - 1) * int(points)

    def _grid_count_shortest(self, args):
        src, dst, grid = args[1], args[2], args[3]
        if src.time <= dst.time:
            points = (dst.time - src.time) / Fraction(grid.step) + 1
            self.counts["oracle.grid_steps"] += int(points)

    # -- installation -----------------------------------------------------

    def _plan(self, package):
        """(owner, attribute, wrapper) for everything to rebind."""
        hooks = {
            "stream.graph_at": (self._graph_at, None),
            "shortest_volumes.sweep_build": (None, self._sweep_built),
            "shortest_volumes.state_at": (self._state_at, None),
            "latencies.latency_lists": (None, self._latency_lists),
            "contribution.contribution": (
                self._contribution_enter,
                self._contribution_exit,
            ),
            "contribution.prev_list": (None, self._boundary(0)),
            "contribution.next_list": (None, self._boundary(1)),
            "oracle.grid_betweenness": (self._grid_betweenness, None),
            "oracle.grid_count_shortest": (self._grid_count_shortest, None),
        }
        modules = [m for m in (sys.modules.get(package + "." + n) for n in LAYERS) if m]
        functions = {}  # original -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if layer in COUNTED_ONLY:
                    functions[fn] = self._counter("volumes.ops", fn)
                else:
                    functions[fn] = self._span(name, fn, *hooks.get(name, (None, None)))
        plan = []
        scope = modules + [sys.modules[package]]
        for mod in scope:
            for attr, value in list(vars(mod).items()):
                wrapper = functions.get(value) if _hashable(value) else None
                if wrapper is not None:
                    plan.append((mod, attr, wrapper))
        methods = (
            ("stream", "LinkStream", "graph_at", "stream.graph_at"),
            ("shortest_volumes", "SweepTables", "__init__", "shortest_volumes.sweep_build"),
            ("shortest_volumes", "SweepTables", "state_at", "shortest_volumes.state_at"),
        )
        for layer, cls_name, attr, name in methods:
            cls = getattr(sys.modules.get(package + "." + layer), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is not None:
                plan.append((cls, attr, self._span(name, fn, *hooks.get(name, (None, None)))))
        return plan

    @contextmanager
    def installed(self, package="linkstream"):
        """Trace every call into the package while the block runs."""
        plan = self._plan(package)
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in plan]
        try:
            for owner, attr, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def calls(self, name):
        return self.spans[name][0] if name in self.spans else 0

    def self_s(self, name):
        return self.spans[name][2] if name in self.spans else 0.0

    def summary(self):
        return {
            "spans": {
                name: {"calls": c, "incl_s": incl, "self_s": own}
                for name, (c, incl, own) in sorted(self.spans.items())
                if c
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True
