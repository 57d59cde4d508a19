import importlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from linkstream import (
    LinkStream,
    Poly,
    Q,
    StreamError,
    TemporalNode,
    Volume,
    VolumeError,
    betweenness,
    contribution,
    gap_polynomial,
    latency_lists,
    parse_stream,
    profile,
)

from conftest import DEMO_TEXT, random_stream, relay_stream, seeded
from test_lattice import huge_stream, integer_stream, quarters_stream
from test_lazy import int_stream, ticks
from test_shared_state import quarter_stream


def transform(stream, f, relabel=None):
    """Rebuild a stream with every time mapped through f (monotone in either
    direction) and nodes optionally renamed."""
    relabel = relabel or (lambda v: v)
    a, b = f(stream.alpha), f(stream.omega)
    alpha, omega = min(a, b), max(a, b)
    presence = {}
    for (u, v), ivs in stream.presence.items():
        key = tuple(sorted((relabel(u), relabel(v))))
        presence[key] = [
            (min(f(lo), f(hi)), max(f(lo), f(hi))) for lo, hi in ivs
        ]
    return LinkStream(alpha, omega, [relabel(v) for v in stream.nodes], presence)


def sample_points(stream, rng, k=4):
    pts = []
    for _ in range(k):
        t = Q(rng.randint(0, 1)) + Q(rng.randint(0, 19))
        pts.append(TemporalNode(min(t, stream.omega), rng.choice(stream.nodes)))
    return pts


class TestBetweennessPoint:
    def test_demo_values(self, demo):
        assert betweenness(demo, TemporalNode(Q(9, 2), "c")) == Q(81, 2)
        assert betweenness(demo, TemporalNode(Q(10), "c")) == 232
        assert betweenness(demo, TemporalNode(Q(16), "d")) == 757

    def test_nonnegative(self, demo):
        for t in range(0, 33, 8):
            for v in demo.nodes:
                assert betweenness(demo, TemporalNode(Q(t), v)) >= 0

    def test_outside_window_rejected(self, demo):
        with pytest.raises(StreamError):
            betweenness(demo, TemporalNode(Q(-1), "a"))

    def test_unknown_node_rejected(self, demo):
        with pytest.raises(StreamError):
            betweenness(demo, TemporalNode(Q(5), "z"))


class TestInvariances:
    def test_time_shift(self):
        rng = seeded(501)
        shift = Q(7, 3)
        for _ in range(20):
            s = random_stream(rng)
            s2 = transform(s, lambda t: t + shift)
            for tv in sample_points(s, rng):
                b1 = betweenness(s, tv)
                b2 = betweenness(s2, TemporalNode(tv.time + shift, tv.node))
                assert b1 == b2

    def test_time_scaling_is_quadratic(self):
        rng = seeded(502)
        scale = Q(3, 2)
        for _ in range(20):
            s = random_stream(rng)
            s2 = transform(s, lambda t: scale * t)
            for tv in sample_points(s, rng):
                b1 = betweenness(s, tv)
                b2 = betweenness(s2, TemporalNode(scale * tv.time, tv.node))
                assert b2 == scale * scale * b1

    def test_node_relabeling(self):
        rng = seeded(503)
        for _ in range(20):
            s = random_stream(rng)
            names = list(s.nodes)
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, ["n_" + x for x in shuffled]))
            s2 = transform(s, lambda t: t, relabel=mapping.__getitem__)
            for tv in sample_points(s, rng):
                b1 = betweenness(s, tv)
                b2 = betweenness(s2, TemporalNode(tv.time, mapping[tv.node]))
                assert b1 == b2

    def test_mirror_symmetry(self):
        rng = seeded(504)
        for _ in range(20):
            s = random_stream(rng)
            mid = s.alpha + s.omega
            s2 = transform(s, lambda t: mid - t)
            for tv in sample_points(s, rng):
                b1 = betweenness(s, tv)
                b2 = betweenness(s2, TemporalNode(mid - tv.time, tv.node))
                assert b1 == b2


class TestProfile:
    def test_sample_count_and_order(self, demo):
        prof = profile(demo, 4)
        assert len(prof.samples) == len(demo.nodes) * 5
        seen = [tv for tv, _ in prof.samples]
        expected = [
            TemporalNode(Q(8) * i, v) for v in demo.nodes for i in range(5)
        ]
        assert seen == expected

    def test_single_sample_per_node(self, demo):
        prof = profile(demo, 1)
        times = {tv.time for tv, _ in prof.samples}
        assert times == {Q(0), Q(32)}

    def test_isolated_node_is_zero(self):
        stream = LinkStream(
            Q(0), Q(10), ["a", "b", "x"], {("a", "b"): [(Q(1), Q(9))]}
        )
        prof = profile(stream, 5)
        for tv, val in prof.samples:
            if tv.node == "x":
                assert val == 0

    def test_threads_match_serial(self, demo):
        serial = profile(demo, 3, threads=1)
        parallel = profile(demo, 3, threads=4)
        assert serial == parallel

    def test_invalid_sample_count(self, demo):
        with pytest.raises(ValueError):
            profile(demo, 0)


per_gap = importlib.import_module("linkstream.betweenness")


def with_isolated_node(stream, scale=1):
    """The stream with every time divided by `scale` and a node "z" that
    has no link in the whole window."""
    presence = {
        pair: [(b / scale, e / scale) for b, e in ivs]
        for pair, ivs in stream.presence.items()
    }
    return LinkStream(
        stream.alpha / scale, stream.omega / scale,
        list(stream.nodes) + ["z"], presence,
    )


def direct(stream, prof):
    """Every sample of `prof` evaluated on its own, on a new stream."""
    fresh = LinkStream(stream.alpha, stream.omega, stream.nodes, stream.presence)
    return [(tv, betweenness(fresh, tv)) for tv, _ in prof.samples]


@pytest.fixture
def evaluations(monkeypatch):
    """(passes, calls): the pair passes that run, as (slot, node, time),
    and the temporal nodes given to the public `betweenness`, in order."""
    passes, calls = [], []
    run_pass, evaluate = per_gap._pass, per_gap.betweenness

    def counted_pass(twin, k, v, time=None):
        passes.append((k, v, time))
        return run_pass(twin, k, v, time)

    def counted(stream, tv):
        calls.append(tv)
        return evaluate(stream, tv)

    monkeypatch.setattr(per_gap, "_pass", counted_pass)
    monkeypatch.setattr(per_gap, "betweenness", counted)
    return passes, calls


def open_gaps(stream):
    """(k, t_k, end) for each open gap slot k that holds a time: the gap
    runs from t_k, the event time before it (alpha on the first gap), to
    end, the event time after it (omega on the last gap)."""
    events = stream.event_times()
    bounds = [stream.alpha, *events, stream.omega]
    return [(2 * n, bounds[n], bounds[n + 1]) for n in range(len(events) + 1)
            if bounds[n] < bounds[n + 1]]


def gap_values(stream, prof):
    """(k, v) -> the values of `prof` on the open gap slot k, for node v."""
    by_gap = {}
    for tv, value in prof.samples:
        k = stream.slot(tv.time)
        if not k & 1:
            by_gap.setdefault((k, tv.node), []).append(value)
    return by_gap


# the demo, and the first seeds whose 40-sample profile has a gap of three
# or more samples on which the betweenness of some node varies
VARYING_GAPS = [
    (None, None),
    *((int_stream, seed) for seed in (34, 40, 50)),
    *((quarter_stream, seed) for seed in (38, 63, 75)),
]


class TestPerGapProfile:
    def test_matches_direct_evaluation(self):
        rng = seeded(505)
        seen = set()
        # (relay case, gap slot) -> 0 when every node's values are constant
        # there, 1 when they are at most linear, 2 otherwise, over the gaps
        # of three or more of the 40 samples
        varies = {}
        for case in range(16):
            make = random_stream if case < 8 else relay_stream
            stream = with_isolated_node(make(rng), 4 if case % 2 else 1)
            for n in (1, 7, 40, 120):
                prof = profile(stream, n)
                assert prof.samples == direct(stream, prof), (n, stream.serialize())
                per_slot = Counter(
                    (stream.slot(tv.time), tv.node) for tv, _ in prof.samples
                )
                for k, v in per_slot:
                    if k & 1:
                        seen.add("event time")
                    elif len(gap_polynomial(stream, k, v).coefficients) > 1:
                        seen.add("varying gap")
                    else:
                        seen.add("constant gap")
                if make is relay_stream and n == 40:
                    for (k, _), values in gap_values(stream, prof).items():
                        if len(values) > 2:
                            slope = [b - a for a, b in zip(values, values[1:])]
                            shape = (len(set(values)) > 1) + (len(set(slope)) > 1)
                            varies[case, k] = max(varies.get((case, k), 0), shape)
        assert seen == {"event time", "constant gap", "varying gap"}
        # the gaps are not all constant polynomials, nor all linear ones
        assert sum(map(bool, varies.values())) >= len(varies) / 5, varies
        assert 2 in varies.values(), varies

    def test_gap_runs_follow_their_polynomials(self, demo):
        """Each gap run of a 40-sample profile is its gap polynomial at the
        run's times, and on each of these streams some run varies."""
        for make, seed in VARYING_GAPS:
            stream = demo if make is None else make(seeded(seed))
            prof = profile(stream, 40)
            assert prof.samples == direct(stream, prof), stream.serialize()
            starts = {k: t_k for k, t_k, _ in open_gaps(stream)}
            for tv, value in prof.samples:
                k = stream.slot(tv.time)
                if not k & 1:
                    poly = gap_polynomial(stream, k, tv.node)
                    assert poly(tv.time - starts[k]) == value
            assert any(len(values) > 2 and len(set(values)) > 1
                       for values in gap_values(stream, prof).values())
        assert repr(gap_polynomial(demo, 40, "c")) == (
            "Poly([Fraction(384, 11), Fraction(0, 1), Fraction(-96, 11)])")

    @pytest.mark.parametrize("text", [
        "5 5\na b 5 5\n",  # a single-instant window: one run of equal times
        "0 10\na b 2 2\nb c 2 2\nb c 7 7\na c 9 9\n",  # instants only
        "0 10\na b 10 10\n",  # one run over the open window [0, 10[
    ])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_degenerate_runs_match_direct_evaluation(self, text, n):
        stream = parse_stream(text)
        prof = profile(stream, n)
        assert len(prof.samples) == len(stream.nodes) * (n + 1)
        assert prof.samples == direct(stream, prof)

    def test_evaluations_grow_with_gaps(self, demo, evaluations):
        fresh = LinkStream(demo.alpha, demo.omega, demo.nodes, demo.presence)
        prof = profile(fresh, 1000)
        assert len(prof.samples) == 5005
        passes, calls = evaluations
        assert len(passes) < 1000 and calls == []

    @pytest.mark.parametrize("make,seed", VARYING_GAPS)
    def test_repeat_reuses_the_twin(self, monkeypatch, make, seed):
        """A second profile on the same stream gives the same samples, and
        runs no boundary scan: every frame is kept on the twin."""
        stream = parse_stream(DEMO_TEXT if make is None
                              else make(seeded(seed)).serialize())
        n = 1000 if make is None else 120
        first = profile(stream, n)
        scans = []
        module = importlib.import_module("linkstream.contribution")
        scan = module._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(module, "_scan", counted)
        assert profile(stream, n) == first
        assert scans == []

    @pytest.mark.parametrize("make", [quarters_stream, huge_stream,
                                      relay_stream])
    @pytest.mark.parametrize("seed", range(4))
    def test_samples_are_placed_by_ints(self, make, seed):
        """Each sample tick a/m of the twin is placed by ints in the slot
        where `slot` places the Fraction a/m."""
        twin, _ = make(seeded(seed)).lattice()
        for n in (1, 7, 40, 120):
            step = Q(twin.omega - twin.alpha, n)
            m = step.denominator
            for i in range(n + 1):
                a = twin.alpha * m + i * step.numerator
                assert per_gap._slot(twin, a, m) == twin.slot(Q(a, m)), (n, i)

    @pytest.mark.parametrize("make,seed", VARYING_GAPS)
    def test_direct_only_at_events(self, demo, evaluations, make, seed):
        """Each slot that holds samples, event time or gap, gets one pair
        pass per node and no query time: the samples at an event time take
        its constant directly, and those of a gap its polynomial.  The
        public `betweenness` is never called."""
        stream = demo if make is None else make(seeded(seed))
        stream = LinkStream(stream.alpha, stream.omega, stream.nodes,
                            stream.presence)
        n = 1000 if make is None else 120
        prof = profile(stream, n)
        passes, calls = evaluations
        slots = {(stream.slot(tv.time), tv.node) for tv, _ in prof.samples}
        assert sorted(passes) == sorted((k, v, None) for k, v in slots)
        assert calls == []
        if make is None:
            kinds = Counter("event" if k & 1 else "gap" for k, _, _ in passes)
            assert kinds == {"event": 25, "gap": 125}


# every kind of time: ints, quarters, denominators near 10**30, and relay
# streams, whose gaps often hold a varying betweenness
GAP_STREAMS = {"integer": integer_stream, "quarter": quarters_stream,
               "huge": huge_stream, "relay": relay_stream}


class TestGapPolynomial:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(sorted(GAP_STREAMS)),
           seed=st.integers(0, 10**6))
    def test_equals_direct_evaluation(self, kind, seed):
        """At each gap's midpoint, its thirds and a random rational inside
        it, for every node, the polynomial is `betweenness` evaluated on a
        stream of its own; its degree is at most 2*ecc_k(v)."""
        rng = seeded(seed)
        stream = GAP_STREAMS[kind](rng)
        fresh = LinkStream(stream.alpha, stream.omega, stream.nodes,
                           stream.presence)
        for k, t_k, end in open_gaps(stream):
            q = rng.randint(2, 10**9)
            parts = [Q(1, 2), Q(1, 3), Q(2, 3), Q(rng.randint(1, q - 1), q)]
            for v in stream.nodes:
                poly = gap_polynomial(stream, k, v)
                ecc = max(stream.bfs(k, v).dist.values())
                assert len(poly.coefficients) - 1 <= 2 * ecc
                for part in parts:
                    s = (end - t_k) * part
                    want = betweenness(fresh, TemporalNode(t_k + s, v))
                    assert poly(s) == want, (stream.serialize(), k, v, s)

    @pytest.mark.parametrize("k", [-2, 1, 3, 99])
    def test_rejects_slots_that_are_not_open_gaps(self, demo, k):
        with pytest.raises(ValueError):
            gap_polynomial(demo, k, "a")

    def test_rejects_unknown_nodes(self, demo):
        with pytest.raises(StreamError):
            gap_polynomial(demo, 2, "z")

    @pytest.mark.parametrize("wrong", ["higher_dim", "larger_size",
                                       "larger_varying_size",
                                       "higher_dim_at_events",
                                       "larger_size_at_events"])
    def test_profile_keeps_the_subset_guard(self, monkeypatch, wrong):
        """With vol_tv patched to a higher dimension or a larger size (or
        only where its size varies on the gap), in the passes of the gaps
        alone, or in those of the event slots alone, `profile` raises
        VolumeError."""
        module = importlib.import_module("linkstream.contribution")
        real, run_pass = module.vol_mul, per_gap._pass
        at_events = wrong.endswith("_at_events")
        slot = []

        def in_slot(twin, k, v, time=None):
            slot[:] = [k]
            return run_pass(twin, k, v, time)

        def patched(a, b):
            vol = real(a, b)
            if bool(slot[0] & 1) != at_events:
                return vol
            if wrong.startswith("higher_dim"):
                return Volume(vol.size, vol.dim + 1)
            if wrong != "larger_varying_size" or (
                    isinstance(vol.size, Poly)
                    and len(vol.size.coefficients) > 1):
                return Volume(vol.size + 10**9, vol.dim)
            return vol

        monkeypatch.setattr(per_gap, "_pass", in_slot)
        profile(parse_stream(DEMO_TEXT), 1000)  # no pass raises as is
        monkeypatch.setattr(module, "vol_mul", patched)
        with pytest.raises(VolumeError):
            profile(parse_stream(DEMO_TEXT), 1000)


def with_late_and_isolated_nodes(stream):
    """The stream with a node "y" that has no link and a node "z" linked to
    "a" on the last unit of the window only: before it, z reaches nothing."""
    presence = dict(stream.presence)
    presence[("a", "z")] = [(stream.omega - 1, stream.omega)]
    return LinkStream(stream.alpha, stream.omega,
                      list(stream.nodes) + ["y", "z"], presence)


class TestSkippedPairs:
    """betweenness skips every source u with no u->v latency pair arriving
    by t, and every destination w with no v->w pair starting at or after t:
    the pairs it skips must contribute 0."""

    @pytest.mark.parametrize("make", [int_stream, quarter_stream])
    @pytest.mark.parametrize("seed", range(6))
    def test_sum_of_public_contributions(self, make, seed):
        stream = with_late_and_isolated_nodes(make(seeded(4400 + seed)))
        # the contributions run on a stream of their own: no shared tables
        fresh = LinkStream(stream.alpha, stream.omega, stream.nodes,
                           stream.presence)
        lists = {u: latency_lists(fresh, u) for u in fresh.nodes}
        for t in ticks(stream):
            for v in stream.nodes:
                tv = TemporalNode(t, v)
                total = sum(contribution(fresh, u, w, tv, lists[u][w]).value
                            for u in fresh.nodes for w in fresh.nodes)
                assert betweenness(stream, tv) == total, (seed, tv)
