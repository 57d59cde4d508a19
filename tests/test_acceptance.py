"""Acceptance gate: one test per release criterion.

Each criterion from the build contract maps to exactly one test below, so a
verbose run shows one pass/fail line per criterion.  The two xfail companions
pin down contract values that contradict the stream data itself; the honest
values are asserted in the main criterion tests and the discrepancy analysis
lives in the project notes outside this repository.
"""

import time
from fractions import Fraction

import pytest

from linkstream import (
    GridSpec,
    Q,
    TemporalNode,
    V_UNIT,
    V_ZERO,
    Volume,
    betweenness,
    cell_ratio,
    contribution,
    grid_betweenness,
    grid_count_shortest,
    latency,
    latency_lists,
    profile,
    vol_add,
    vol_div,
    vol_mul,
    vol_sub,
    vsp,
)

from conftest import random_stream, seeded


def tn(t, v):
    return TemporalNode(Q(t) if isinstance(t, int) else t, v)


GOLDEN_VOLUMES = [
    ((0, "a"), (14, "e"), Volume(Q(4), 4)),
    ((4, "a"), (17, "e"), Volume(Q(2), 2)),
    ((12, "a"), (26, "e"), Volume(Q(1), 2)),
    ((20, "a"), (32, "e"), Volume(Q(11, 2), 4)),
    ((0, "a"), (18, "e"), Volume(Q(2), 2)),
    ((0, "a"), (23, "e"), Volume(Q(5), 2)),
    ((0, "a"), (26, "e"), Volume(Q(3), 3)),
    ((0, "a"), (32, "e"), Volume(Q(8), 3)),
]


def test_criterion_1_golden_volumes(demo):
    start = time.perf_counter()
    for src, dst, expected in GOLDEN_VOLUMES:
        assert vsp(demo, tn(*src), tn(*dst)).volume == expected
    assert time.perf_counter() - start < 1.0


def test_criterion_2_golden_distances_and_latency_lists(demo):
    assert vsp(demo, tn(0, "a"), tn(32, "e")).distance == 3
    # minimal duration over the whole window; realized by the pair (24,30)
    assert latency(demo, tn(0, "a"), "e") == 6
    ll_a = latency_lists(demo, "a")["e"]
    assert [(s, a) for s, a in ll_a] == [(2, 9), (9, 16), (16, 23), (24, 30)]
    ll_b = latency_lists(demo, "b")["d"]
    assert [(s, a) for s, a in ll_b] == [
        (5, 6), (12, 12), (14, 14), (19, 19), (27, 27), (28, 28)
    ]


@pytest.mark.xfail(
    strict=True,
    reason="pinned duration 7 contradicts the stream data: the latency pair "
    "(24,30) realizes duration 6 from (0,a) to e",
)
def test_criterion_2_pinned_latency_value(demo):
    assert latency(demo, tn(0, "a"), "e") == 7


def test_criterion_3_golden_cell_ratios(demo):
    ll = latency_lists(demo, "a")["e"]
    i, j = Q(0), Q(18)
    assert cell_ratio(demo, "a", "e", tn(8, "d"), ll, i, j) == 1
    # the volume through (4.5,c) covers crossings of the b-c link only while
    # both families are live, which is 3/4 of the full cell volume
    assert cell_ratio(demo, "a", "e", tn(Q(9, 2), "c"), ll, i, j) == Q(3, 4)
    for t, v in [(Q(15, 2), "c"), (Q(10), "b"), (Q(10), "c"), (Q(14), "d")]:
        assert cell_ratio(demo, "a", "e", tn(t, v), ll, i, j) == 0


@pytest.mark.xfail(
    strict=True,
    reason="pinned ratio 1 for (4.5,c) at cell (0,18) contradicts the "
    "involvement rule: interior occupation only reaches every member of the "
    "cell for t in [5,6], so the exact ratio is 3/4",
)
def test_criterion_3_pinned_ratio_at_4_5_c(demo):
    ll = latency_lists(demo, "a")["e"]
    assert cell_ratio(demo, "a", "e", tn(Q(9, 2), "c"), ll, Q(0), Q(18)) == 1


def test_criterion_4_oracle_equivalence_on_random_streams():
    start = time.perf_counter()
    rng = seeded(2024)
    g8 = GridSpec(Fraction(1, 8))
    g16 = GridSpec(Fraction(1, 16))
    checked = 0
    for _ in range(50):
        stream = random_stream(rng)
        for _ in range(10):
            t1 = Q(rng.randint(0, 20))
            t2 = Q(rng.randint(0, 20))
            if t1 > t2:
                t1, t2 = t2, t1
            src = tn(t1, rng.choice(stream.nodes))
            dst = tn(t2, rng.choice(stream.nodes))
            res = vsp(stream, src, dst)
            len8 = grid_count_shortest(stream, src, dst, g8)
            len16 = grid_count_shortest(stream, src, dst, g16)
            assert len8[0] == res.distance
            assert len16[0] == res.distance
            if res.distance is None:
                continue
            checked += 1
            size, dim = res.volume.size, res.volume.dim
            est8 = len8[1] * g8.step**dim
            est16 = len16[1] * g16.step**dim
            rich = 2 * est16 - est8
            assert abs(rich - size) < size * Fraction(5, 100)
            assert abs(est16 - size) <= abs(est8 - size)
    assert checked >= 100
    assert time.perf_counter() - start < 300


def test_criterion_5_full_betweenness_matches_oracle(demo):
    targets = [tn(Q(9, 2), "c"), tn(Q(10), "c"), tn(Q(16), "d")]
    exact = [betweenness(demo, tv) for tv in targets]
    est8 = grid_betweenness(demo, targets, GridSpec(Fraction(1, 8)))
    est16 = grid_betweenness(demo, targets, GridSpec(Fraction(1, 16)))
    for val, e8, e16 in zip(exact, est8, est16):
        rich = 2 * e16 - e8
        assert abs(rich - val) <= val * Fraction(3, 100)


def test_criterion_6_invariance_suite():
    from test_betweenness import sample_points, transform

    rng = seeded(606)
    shift = Q(5, 2)
    scale = Q(2)
    for _ in range(20):
        s = random_stream(rng)
        mid = s.alpha + s.omega
        shifted = transform(s, lambda t: t + shift)
        scaled = transform(s, lambda t: scale * t)
        mirrored = transform(s, lambda t: mid - t)
        names = list(s.nodes)
        renamed = {v: "r_" + v for v in names}
        relabeled = transform(s, lambda t: t, relabel=renamed.__getitem__)
        for tv in sample_points(s, rng, k=3):
            b = betweenness(s, tv)
            assert betweenness(
                shifted, TemporalNode(tv.time + shift, tv.node)
            ) == b
            assert betweenness(
                scaled, TemporalNode(scale * tv.time, tv.node)
            ) == scale * scale * b
            assert betweenness(
                mirrored, TemporalNode(mid - tv.time, tv.node)
            ) == b
            assert betweenness(
                relabeled, TemporalNode(tv.time, renamed[tv.node])
            ) == b


def test_criterion_7_profile_runtime_and_zero_structure(demo):
    start = time.perf_counter()
    prof = profile(demo, 1000, threads=1)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60
    assert len(prof.samples) == 5 * 1001
    assert all(value >= 0 for _, value in prof.samples)
    # zeros occur exactly where no node pair anchors the temporal node;
    # check the equivalence on a subsample to keep the runtime bounded
    for tv, value in prof.samples[::97]:
        anchored = False
        for u in demo.nodes:
            lists = latency_lists(demo, u)
            for w in demo.nodes:
                if contribution(demo, u, w, tv, lists[w]).anchor is not None:
                    anchored = True
        assert (value == 0) == (not anchored)


def test_criterion_8_volume_algebra_examples():
    a22 = Volume(Q(2), 2)
    b23 = Volume(Q(2), 3)
    c13 = Volume(Q(1), 3)
    # addition: worked sums, commutativity, associativity, identity
    assert vol_add(vol_add(a22, a22), Volume(Q(1), 2)) == Volume(Q(5), 2)
    assert vol_add(vol_add(a22, b23), c13) == Volume(Q(3), 3)
    assert vol_add(a22, b23) == vol_add(b23, a22)
    assert vol_add(vol_add(a22, b23), c13) == vol_add(a22, vol_add(b23, c13))
    assert vol_add(a22, V_ZERO) == a22
    # multiplication: commutativity, associativity, identity, annihilation
    assert vol_mul(a22, Volume(Q(3), 1)) == Volume(Q(6), 3)
    assert vol_mul(a22, b23) == vol_mul(b23, a22)
    assert vol_mul(vol_mul(a22, b23), c13) == vol_mul(a22, vol_mul(b23, c13))
    assert vol_mul(a22, V_UNIT) == a22
    assert vol_mul(a22, V_ZERO) == V_ZERO
    # division: subset semantics
    assert vol_div(a22, a22) == 1
    assert vol_div(Volume(Q(3), 2), Volume(Q(4), 2)) == Q(3, 4)
    assert vol_div(Volume(Q(2), 1), a22) == 0
    assert vol_div(V_ZERO, a22) == 0
    # subtraction: cancellation
    assert vol_sub(Volume(Q(5), 2), a22) == Volume(Q(3), 2)
    assert vol_sub(a22, a22) == V_ZERO
    assert vol_sub(Volume(Q(5), 3), a22) == Volume(Q(5), 3)
